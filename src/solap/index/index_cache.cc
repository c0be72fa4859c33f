#include "solap/index/index_cache.h"

namespace solap {

namespace {

std::string KeyOf(const IndexShape& shape, const std::string& sig) {
  return shape.CanonicalString() + "|" + sig;
}

}  // namespace

std::shared_ptr<InvertedIndex> GroupIndexCache::FindLocked(
    const IndexShape& shape, const std::string& constraint_sig) const {
  auto it = by_key_.find(KeyOf(shape, constraint_sig));
  return it == by_key_.end() ? nullptr : entries_[it->second];
}

std::shared_ptr<InvertedIndex> GroupIndexCache::Find(
    const IndexShape& shape, const std::string& constraint_sig) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindLocked(shape, constraint_sig);
}

std::shared_ptr<InvertedIndex> GroupIndexCache::FindUsable(
    const IndexShape& shape, const std::string& constraint_sig) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (auto exact = FindLocked(shape, constraint_sig)) return exact;
  if (!constraint_sig.empty()) {
    if (auto complete = FindLocked(shape, "")) return complete;
  }
  return nullptr;
}

Status GroupIndexCache::Insert(std::shared_ptr<InvertedIndex> index) {
  std::string key = KeyOf(index->shape(), index->constraint_sig());
  const size_t bytes = index->ByteSize();
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_key_.find(key);
  // Replacing an entry nets out against its existing charge; only the
  // growth is a new reservation.
  const size_t old_bytes = it != by_key_.end() ? entry_bytes_[it->second] : 0;
  if (governor_ != nullptr) {
    if (bytes > old_bytes) {
      SOLAP_RETURN_NOT_OK(
          governor_->TryCharge(bytes - old_bytes, "index cache"));
      charged_bytes_ += bytes - old_bytes;
    } else {
      governor_->Release(old_bytes - bytes);
      charged_bytes_ -= old_bytes - bytes;
    }
  }
  if (it != by_key_.end()) {
    entries_[it->second] = std::move(index);
    entry_bytes_[it->second] = bytes;
    return Status::OK();
  }
  by_key_.emplace(std::move(key), entries_.size());
  entries_.push_back(std::move(index));
  entry_bytes_.push_back(bytes);
  return Status::OK();
}

std::vector<std::shared_ptr<InvertedIndex>> GroupIndexCache::entries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_;
}

size_t GroupIndexCache::TotalBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& e : entries_) bytes += e->ByteSize();
  return bytes;
}

void GroupIndexCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (governor_ != nullptr) governor_->Release(charged_bytes_);
  charged_bytes_ = 0;
  entries_.clear();
  entry_bytes_.clear();
  by_key_.clear();
}

GroupIndexCache::~GroupIndexCache() {
  if (governor_ != nullptr) governor_->Release(charged_bytes_);
}

std::shared_ptr<GroupIndexCache> FormationIndexCaches::For(size_t group_idx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_idx >= groups_.size()) groups_.resize(group_idx + 1);
  std::shared_ptr<GroupIndexCache>& cache = groups_[group_idx];
  if (cache == nullptr) cache = std::make_shared<GroupIndexCache>(governor_);
  return cache;
}

std::shared_ptr<GroupIndexCache> FormationIndexCaches::Find(
    size_t group_idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_idx < groups_.size() ? groups_[group_idx] : nullptr;
}

size_t FormationIndexCaches::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& cache : groups_) {
    if (cache != nullptr) bytes += cache->TotalBytes();
  }
  return bytes;
}

}  // namespace solap
