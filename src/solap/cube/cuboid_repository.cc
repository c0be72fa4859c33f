#include "solap/cube/cuboid_repository.h"

namespace solap {

std::shared_ptr<const SCuboid> CuboidRepository::Lookup(
    const std::string& spec_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(spec_key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->cuboid;
}

void CuboidRepository::Insert(const std::string& spec_key,
                              std::shared_ptr<const SCuboid> cuboid,
                              const CuboidSpec& spec) {
  if (capacity_bytes_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t bytes = cuboid->ByteSize();
  // A rejected charge skips caching but never fails the query — the caller
  // already holds the computed cuboid.
  if (governor_ != nullptr &&
      !governor_->TryCharge(bytes, "cuboid repository").ok()) {
    return;
  }
  auto it = map_.find(spec_key);
  if (it != map_.end()) {
    bytes_used_ -= it->second->bytes;
    if (governor_ != nullptr) governor_->Release(it->second->bytes);
    lru_.erase(it->second);
    map_.erase(it);
  }
  lru_.push_front(Entry{spec_key, std::move(cuboid), bytes, spec});
  map_[spec_key] = lru_.begin();
  bytes_used_ += bytes;
  EvictIfNeeded();
}

std::vector<CuboidRepository::Entry> CuboidRepository::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {lru_.begin(), lru_.end()};
}

void CuboidRepository::Erase(const std::string& spec_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(spec_key);
  if (it == map_.end()) return;
  bytes_used_ -= it->second->bytes;
  if (governor_ != nullptr) governor_->Release(it->second->bytes);
  lru_.erase(it->second);
  map_.erase(it);
}

void CuboidRepository::Replace(const std::string& spec_key,
                               std::shared_ptr<const SCuboid> cuboid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(spec_key);
  if (it == map_.end()) return;
  Entry& e = *it->second;
  const size_t new_bytes = cuboid->ByteSize();
  if (governor_ != nullptr) {
    // Patched cuboids only grow by the appended cells; a rejected charge
    // drops the entry instead of keeping a stale one.
    governor_->Release(e.bytes);
    if (!governor_->TryCharge(new_bytes, "cuboid repository").ok()) {
      bytes_used_ -= e.bytes;
      lru_.erase(it->second);
      map_.erase(it);
      return;
    }
  }
  bytes_used_ = bytes_used_ - e.bytes + new_bytes;
  e.bytes = new_bytes;
  e.cuboid = std::move(cuboid);
  EvictIfNeeded();
}

void CuboidRepository::EvictIfNeeded() {
  while (bytes_used_ > capacity_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_used_ -= victim.bytes;
    if (governor_ != nullptr) governor_->Release(victim.bytes);
    map_.erase(victim.key);
    lru_.pop_back();
  }
}

void CuboidRepository::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (governor_ != nullptr) governor_->Release(bytes_used_);
  lru_.clear();
  map_.clear();
  bytes_used_ = 0;
}

CuboidRepository::~CuboidRepository() {
  if (governor_ != nullptr) governor_->Release(bytes_used_);
}

}  // namespace solap
