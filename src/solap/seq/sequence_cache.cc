#include "solap/seq/sequence_cache.h"

namespace solap {

std::shared_ptr<SequenceGroupSet> SequenceCache::Lookup(
    const SequenceSpec& spec) const {
  const std::string key = spec.CanonicalString();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  if (!it->second.base_key.empty()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }
  return it->second.set;
}

bool SequenceCache::Holds(const SequenceGroupSet& set) const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_set_.count(&set) != 0;
}

std::shared_ptr<FormationIndexCaches> SequenceCache::IndexCachesOf(
    const SequenceGroupSet& set) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_set_.find(&set);
  return it == by_set_.end() ? nullptr : it->second->index_caches;
}

std::shared_ptr<SequenceGroupSet> SequenceCache::InsertIfAbsent(
    const SequenceSpec& spec, std::shared_ptr<SequenceGroupSet> set,
    const SequenceSpec* base) {
  const std::string key = spec.CanonicalString();
  const std::string base_key = base != nullptr ? base->CanonicalString() : "";
  const size_t bytes = set->ApproxBytes();
  Released released;
  std::shared_ptr<SequenceGroupSet> out = set;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto existing = map_.find(key);
    if (existing != map_.end()) return existing->second.set;
    // A rejected charge returns the freshly built set uncached: the query
    // proceeds on it, and the next identical formation rebuilds. So does a
    // derived set whose base is not cached: nothing would bound it.
    if ((!base_key.empty() && map_.count(base_key) == 0) ||
        !ChargeLocked(bytes, "", &released)) {
      return set;
    }
    Entry& e = map_[key];
    e = Entry{spec, std::move(set),
              std::make_shared<FormationIndexCaches>(governor_), bytes,
              base_key, {}};
    by_set_.emplace(e.set.get(), &e);
    if (!base_key.empty()) {
      e.lru = lru_.insert(lru_.begin(), key);
      derived_bytes_[base_key] += bytes;
      EnforceBoundLocked(base_key, &released);
    }
  }
  return out;
}

bool SequenceCache::Refresh(const SequenceSpec& spec,
                            const SequenceGroupSet& set) {
  const std::string key = spec.CanonicalString();
  const size_t bytes = set.ApproxBytes();
  Released released;
  bool kept = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second.set.get() != &set) return false;
    Entry& e = it->second;
    if (governor_ != nullptr) {
      governor_->Release(e.bytes);
      charged_bytes_ -= e.bytes;
    }
    if (!e.base_key.empty()) derived_bytes_[e.base_key] -= e.bytes;
    e.bytes = 0;
    const std::string base_key = e.base_key;
    kept = ChargeLocked(bytes, key, &released);
    if (kept) {
      e.bytes = bytes;  // erasing other entries leaves `e` in place
      if (!base_key.empty()) derived_bytes_[base_key] += bytes;
    } else {
      RemoveLocked(key, &released);
    }
    // A base that grew allows more derived bytes; one that left allows none.
    EnforceBoundLocked(base_key.empty() ? key : base_key, &released);
  }
  return kept;
}

void SequenceCache::Clear() {
  std::unordered_map<std::string, Entry> released;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (governor_ != nullptr) governor_->Release(charged_bytes_);
    charged_bytes_ = 0;
    released.swap(map_);
    by_set_.clear();
    lru_.clear();
    derived_bytes_.clear();
  }
}

void SequenceCache::Erase(const SequenceSpec& spec) {
  const std::string key = spec.CanonicalString();
  Released released;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.count(key) == 0) return;
    RemoveLocked(key, &released);
    EnforceBoundLocked(key, &released);
  }
}

std::vector<std::pair<SequenceSpec, std::shared_ptr<SequenceGroupSet>>>
SequenceCache::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<SequenceSpec, std::shared_ptr<SequenceGroupSet>>> out;
  out.reserve(map_.size());
  for (const auto& [key, entry] : map_) {
    out.emplace_back(entry.spec, entry.set);
  }
  return out;
}

size_t SequenceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

size_t SequenceCache::DerivedBytes(const SequenceSpec& base) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = derived_bytes_.find(base.CanonicalString());
  return it == derived_bytes_.end() ? 0 : it->second;
}

SequenceCache::~SequenceCache() {
  if (governor_ != nullptr) governor_->Release(charged_bytes_);
}

bool SequenceCache::ChargeLocked(size_t bytes, const std::string& keep,
                                 Released* released) {
  if (governor_ == nullptr) return true;
  while (!governor_->TryCharge(bytes, "sequence cache").ok()) {
    auto victim = lru_.rbegin();
    if (victim != lru_.rend() && *victim == keep) ++victim;
    if (victim == lru_.rend()) return false;
    RemoveLocked(*victim, released);
  }
  charged_bytes_ += bytes;
  return true;
}

void SequenceCache::RemoveLocked(std::string key, Released* released) {
  auto it = map_.find(key);
  Entry& e = it->second;
  if (governor_ != nullptr) {
    governor_->Release(e.bytes);
    charged_bytes_ -= e.bytes;
  }
  if (!e.base_key.empty()) {
    derived_bytes_[e.base_key] -= e.bytes;
    lru_.erase(e.lru);
  }
  by_set_.erase(e.set.get());
  released->push_back(std::move(e));
  map_.erase(it);
}

void SequenceCache::EnforceBoundLocked(const std::string& base_key,
                                       Released* released) {
  auto bytes = derived_bytes_.find(base_key);
  if (bytes == derived_bytes_.end()) return;
  auto base = map_.find(base_key);
  const size_t limit = base != map_.end() ? base->second.bytes : 0;
  for (auto it = lru_.end(); bytes->second > limit && it != lru_.begin();) {
    --it;
    if (map_.at(*it).base_key != base_key) continue;
    auto newer = std::next(it);  // RemoveLocked erases the node `it` is on
    RemoveLocked(*it, released);
    it = newer;
  }
  if (bytes->second == 0) derived_bytes_.erase(bytes);
}

}  // namespace solap
