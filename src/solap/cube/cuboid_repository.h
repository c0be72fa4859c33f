// Cuboid repository (paper Fig. 6): an LRU cache of computed S-cuboids
// keyed by canonical specification text. Because S-cuboids are
// non-summarizable (paper §3.4), only exact hits can be served — there is
// deliberately no cross-cuboid aggregation shortcut here.
//
// Thread-safe: all operations lock an internal mutex (the LRU list is
// rewired even on reads, so a shared lock would not help). Cached cuboids
// are shared as `const` and never mutated after insertion.
#ifndef SOLAP_CUBE_CUBOID_REPOSITORY_H_
#define SOLAP_CUBE_CUBOID_REPOSITORY_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "solap/common/mem_budget.h"
#include "solap/cube/cuboid.h"
#include "solap/cube/cuboid_spec.h"

namespace solap {

/// \brief Byte-budgeted LRU store of materialized S-cuboids.
class CuboidRepository {
 public:
  /// `capacity_bytes` caps the summed SCuboid::ByteSize(); 0 disables
  /// caching entirely.
  explicit CuboidRepository(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}
  ~CuboidRepository();

  /// Attaches the engine-wide byte-budget accountant: inserts charge it and
  /// are silently skipped when rejected (the query keeps its cuboid, it
  /// just isn't cached); evictions and Clear refund it. Set once at engine
  /// construction, before any use.
  void set_governor(MemoryGovernor* governor) { governor_ = governor; }

  /// Cached cuboid for `spec_key`, or nullptr. A hit refreshes recency.
  std::shared_ptr<const SCuboid> Lookup(const std::string& spec_key);

  /// Inserts (or replaces) the cuboid for `spec_key`, evicting
  /// least-recently-used entries to honor the byte budget. The entry
  /// carries the spec that produced the cuboid plus the engine epoch it was
  /// computed at — the metadata streaming ingestion needs to delta-patch
  /// (pattern-invariant appends) or invalidate the entry
  /// (docs/INGESTION.md).
  void Insert(const std::string& spec_key,
              std::shared_ptr<const SCuboid> cuboid, const CuboidSpec& spec,
              uint64_t epoch);

  /// One repository entry as seen by the maintenance pass.
  struct Snapshot {
    std::string key;
    std::shared_ptr<const SCuboid> cuboid;
    CuboidSpec spec;
    uint64_t epoch = 0;
  };
  /// All entries, LRU order not implied. Recency is NOT refreshed.
  std::vector<Snapshot> Entries() const;

  /// Drops one entry (ingestion's invalidation of unpatchable cuboids).
  void Erase(const std::string& spec_key);

  /// Swaps in a patched cuboid for an existing entry, re-stamping its
  /// epoch; keeps the stored spec and recency. No-op if the key is absent
  /// (it may have been evicted concurrently).
  void Replace(const std::string& spec_key,
               std::shared_ptr<const SCuboid> cuboid, uint64_t epoch);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  size_t bytes_used() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_used_;
  }
  void Clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const SCuboid> cuboid;
    size_t bytes;
    CuboidSpec spec;
    uint64_t epoch = 0;
  };

  void EvictIfNeeded();  // requires mu_ held

  mutable std::mutex mu_;
  MemoryGovernor* governor_ = nullptr;
  size_t capacity_bytes_;
  size_t bytes_used_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> map_;
};

}  // namespace solap

#endif  // SOLAP_CUBE_CUBOID_REPOSITORY_H_
