// Per-group cache of inverted indices — the "auxiliary data structures"
// store of the paper's architecture (Fig. 6). Indices created as
// by-products of answering one query are reused by follow-up queries in the
// same iterative session (paper §4.2.2).
//
// Thread-safe for the service layer: lookups (the common case — iterative
// sessions hit cached indices far more often than they build) take a
// shared lock; cache-populating inserts take the exclusive lock. Cached
// InvertedIndex objects are immutable once inserted, so the shared_ptrs a
// reader obtains stay valid with no lock held.
#ifndef SOLAP_INDEX_INDEX_CACHE_H_
#define SOLAP_INDEX_INDEX_CACHE_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "solap/common/mem_budget.h"
#include "solap/common/status.h"
#include "solap/index/inverted_index.h"

namespace solap {

/// \brief Cache of inverted indices for one sequence group.
///
/// Indices are keyed by shape (per-position attribute@level + kind). Each
/// shape may hold several variants: the complete index plus
/// template-filtered ones distinguished by constraint signature.
class GroupIndexCache {
 public:
  /// `governor` (may be null) is the byte-budget accountant charged by
  /// Insert and credited by Clear/destruction; fixed for the cache's life.
  explicit GroupIndexCache(MemoryGovernor* governor = nullptr)
      : governor_(governor) {}

  /// Index matching `shape` with exactly `constraint_sig` ("" = complete),
  /// or nullptr.
  std::shared_ptr<InvertedIndex> Find(const IndexShape& shape,
                                      const std::string& constraint_sig) const;

  /// Best usable index for a query window needing `constraint_sig`: an
  /// exact-signature match, else the complete index (always a superset —
  /// inconsistent keys are skipped at use sites). Returns nullptr if
  /// neither exists.
  std::shared_ptr<InvertedIndex> FindUsable(
      const IndexShape& shape, const std::string& constraint_sig) const;

  /// Caches `index`, charging its ByteSize() to the governor (if set).
  /// Returns ResourceExhausted without inserting when the charge is
  /// rejected — callers either propagate (degrading the query) or continue
  /// uncached.
  Status Insert(std::shared_ptr<InvertedIndex> index);

  /// Snapshot of all cached indices (inspection, derivation searches,
  /// eviction). Returned by value: the cache may be concurrently extended.
  std::vector<std::shared_ptr<InvertedIndex>> entries() const;

  size_t TotalBytes() const;
  void Clear();

  ~GroupIndexCache();

 private:
  std::shared_ptr<InvertedIndex> FindLocked(
      const IndexShape& shape, const std::string& constraint_sig) const;

  mutable std::shared_mutex mu_;
  MemoryGovernor* const governor_;
  size_t charged_bytes_ = 0;  // total currently charged to governor_
  std::vector<std::shared_ptr<InvertedIndex>> entries_;
  // Governor charge of the matching entries_ slot (refunded on replace).
  std::vector<size_t> entry_bytes_;
  // shape canonical + "|" + constraint sig -> entry position.
  std::unordered_map<std::string, size_t> by_key_;
};

}  // namespace solap

#endif  // SOLAP_INDEX_INDEX_CACHE_H_
