// Sequence cache (paper Fig. 6): memoizes the output of the sequence query
// engine so iterative queries sharing the same formation clauses skip
// steps 1-4 entirely. Thread-safe: concurrent queries may look up and
// populate the cache; InsertIfAbsent keeps one canonical set per spec so
// racing builders converge on the same groups (and the index caches keyed
// by the set's id stay shared).
//
// Formations derived from a cached base formation (a time window sliced
// out of it; DESIGN.md "Derived formations") are ordinary entries under
// their own spec, plus a link to their base. They are the only entries the
// cache evicts, least recently used first: once the derived entries of one
// base hold more bytes than the base itself, and before giving up on a
// charge the memory governor rejects.
#ifndef SOLAP_SEQ_SEQUENCE_CACHE_H_
#define SOLAP_SEQ_SEQUENCE_CACHE_H_

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "solap/common/mem_budget.h"
#include "solap/seq/sequence_group.h"
#include "solap/seq/sequence_query_engine.h"

namespace solap {

/// \brief Keyed store of SequenceGroupSets by canonical SequenceSpec text.
class SequenceCache {
 public:
  /// Called with every set that leaves the cache (erased, evicted, cleared
  /// or dropped by Refresh), after the cache lock is released, so the
  /// owner can drop what it keeps per set. Not called on destruction.
  using ReleaseHook = std::function<void(const SequenceGroupSet&)>;

  /// Cached set for `spec`, or nullptr. Marks a derived entry as used.
  std::shared_ptr<SequenceGroupSet> Lookup(const SequenceSpec& spec) const;

  /// True while `set` is cached. A set that left the cache never enters it
  /// again.
  bool Holds(const SequenceGroupSet& set) const;

  /// Stores `set` under `spec` unless another thread won the race, and
  /// returns the canonical entry either way. Queries use this so every
  /// concurrent builder of the same formation ends up sharing one set.
  /// `base` (optional) names the cached formation `set` was derived from;
  /// a derived set is only cached while its base is.
  std::shared_ptr<SequenceGroupSet> InsertIfAbsent(
      const SequenceSpec& spec, std::shared_ptr<SequenceGroupSet> set,
      const SequenceSpec* base = nullptr);

  /// Re-charges the entry under `spec` after `set` grew in place (ingest
  /// extension). Returns false, changing nothing, if `set` is not that
  /// entry, and false after dropping it if the new size is refused even
  /// once every other derived entry is evicted.
  bool Refresh(const SequenceSpec& spec, const SequenceGroupSet& set);

  /// Drops every entry (used when the event table is mutated in a way that
  /// invalidates previously formed sequences).
  void Clear();

  /// Drops one formation (streaming ingestion's conservative invalidation
  /// when an append touches a cluster key the formation already holds),
  /// and with a base its derived entries.
  void Erase(const SequenceSpec& spec);

  /// Snapshot of all cached formations with the specs that built them —
  /// the enumeration the incremental-maintenance pass walks on ingest.
  std::vector<std::pair<SequenceSpec, std::shared_ptr<SequenceGroupSet>>>
  Entries() const;

  size_t size() const;

  /// Bytes of the cached formations derived from `base`.
  size_t DerivedBytes(const SequenceSpec& base) const;

  /// Attaches the engine-wide byte-budget accountant: caching a set charges
  /// its ApproxBytes(); a rejected charge evicts derived entries and
  /// retries, and hands the set back uncached when none are left (the
  /// query proceeds, the next identical formation rebuilds). Set once at
  /// engine construction, before any use.
  void set_governor(MemoryGovernor* governor) { governor_ = governor; }
  /// Set once at engine construction, before any use.
  void set_release_hook(ReleaseHook hook) { release_hook_ = std::move(hook); }

  ~SequenceCache();

 private:
  struct Entry {
    SequenceSpec spec;  // kept so ingestion can re-bind formation clauses
    std::shared_ptr<SequenceGroupSet> set;
    size_t bytes = 0;       // ApproxBytes when (re)charged
    std::string base_key;   // derived entries only
    std::list<std::string>::iterator lru;  // derived entries only
  };
  using Released = std::vector<std::shared_ptr<SequenceGroupSet>>;

  // Helpers below run with mu_ held and collect what leaves in `released`.
  /// Charges `bytes`, evicting derived entries other than `keep` LRU-first
  /// while the governor refuses.
  bool ChargeLocked(size_t bytes, const std::string& keep, Released* released);
  void RemoveLocked(std::string key, Released* released);
  /// Evicts derived entries of `base_key` LRU-first until they hold no
  /// more bytes than the base (zero when it is not cached).
  void EnforceBoundLocked(const std::string& base_key, Released* released);
  void RunReleaseHook(const Released& released) const;

  mutable std::mutex mu_;
  MemoryGovernor* governor_ = nullptr;
  ReleaseHook release_hook_;
  size_t charged_bytes_ = 0;  // total charged to governor_
  std::unordered_map<std::string, Entry> map_;
  std::unordered_set<uint64_t> ids_;  // SequenceGroupSet::id() of each entry
  // Derived keys, most recently used first.
  mutable std::list<std::string> lru_;
  // Bytes of the cached derived entries, by base key.
  std::unordered_map<std::string, size_t> derived_bytes_;
};

}  // namespace solap

#endif  // SOLAP_SEQ_SEQUENCE_CACHE_H_
