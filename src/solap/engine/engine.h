// The S-OLAP engine (paper §4, Fig. 6): executes S-cuboid specifications
// through the counter-based (CB) or inverted-index (II) strategy, caches
// sequence groups, inverted indices and computed cuboids, and hosts the
// §6 extensions (iceberg filtering, incremental update).
#ifndef SOLAP_ENGINE_ENGINE_H_
#define SOLAP_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "solap/common/epoch.h"
#include "solap/common/mem_budget.h"
#include "solap/common/stats.h"
#include "solap/common/status.h"
#include "solap/common/stop.h"
#include "solap/common/trace.h"
#include "solap/cube/cuboid.h"
#include "solap/cube/cuboid_repository.h"
#include "solap/cube/cuboid_spec.h"
#include "solap/index/index_cache.h"
#include "solap/index/index_ops.h"
#include "solap/pattern/matcher.h"
#include "solap/pattern/regex.h"
#include "solap/seq/sequence_cache.h"

namespace solap {

/// S-cuboid construction strategy (paper §4.2).
enum class ExecStrategy {
  /// Counter-based: scan every sequence of every group per query (Fig. 7).
  kCounterBased,
  /// Inverted-index: join/merge/refine cached inverted lists (Fig. 15).
  kInvertedIndex,
  /// Let the StrategyOptimizer pick per query (paper §4.2.2's "S-OLAP
  /// query optimizer" future work; see engine/optimizer.h).
  kAuto,
};

/// Stable lowercase name of a strategy, used by EXPLAIN output and spans.
inline const char* StrategyName(ExecStrategy s) {
  switch (s) {
    case ExecStrategy::kCounterBased: return "counter-based";
    case ExecStrategy::kInvertedIndex: return "inverted-index";
    case ExecStrategy::kAuto: return "auto";
  }
  return "?";
}

/// Tuning knobs of the engine.
struct EngineOptions {
  ExecStrategy default_strategy = ExecStrategy::kInvertedIndex;
  /// Byte budget of the cuboid repository (0 disables cuboid caching).
  size_t repository_capacity_bytes = size_t{64} << 20;
  /// Disables inverted-index reuse across queries — every II query then
  /// rebuilds from scratch (used by benchmarks to isolate reuse benefits).
  bool enable_index_cache = true;
  /// Workers of a ShardedEngine's scatter pool, which runs the shards of
  /// one query concurrently (clamped to the shard count). 0 = hardware
  /// concurrency; 1 = the shards run one after another on the calling
  /// thread. Plain SOlapEngine ignores this: a shard-local query runs on
  /// the thread that issued it.
  size_t exec_threads = 1;
  /// Number of shard-local executors a ShardedEngine partitions the data
  /// into (engine/sharded_engine.h). 1 = one executor that answers every
  /// query directly, with no scatter or gather. Plain SOlapEngine ignores
  /// this.
  size_t shards = 1;
  /// Table-backed sharding: the string column whose base-level code decides
  /// which shard owns a sequence. Queries whose CLUSTER BY does not include
  /// this attribute at its base level cannot be scattered (a coarser level
  /// could split one logical sequence across shards) and fall back to a
  /// monolithic engine. Empty = the table's first string column. (The
  /// explicit `= {}` lets designated initializers omit it warning-free.)
  std::string shard_by = {};
  /// Single byte budget covering everything the engine keeps resident or
  /// allocates in bulk: cached inverted indices, formed sequence groups,
  /// the cuboid repository, and transient II join scratch. When a charge
  /// would exceed it the operation gets ResourceExhausted and the engine
  /// reacts gracefully — caches skip the entry, II queries degrade to the
  /// CB path. 0 = unlimited (usage is still tracked for metrics).
  size_t memory_budget_bytes = 0;
};

/// Per-execution control block: cooperative cancellation plus a sink for
/// the query's own statistics (the service layer reports per-query stats
/// and merges them into the engine totals atomically).
struct ExecControl {
  /// Polled by the CB scan loop, the II join loop and the regex scan.
  const StopToken* stop = nullptr;
  /// If set, receives exactly this execution's counters.
  ScanStats* stats_out = nullptr;
  /// If set, the execution records its span tree here (EXPLAIN ANALYZE,
  /// service trace sampling). nullptr = tracing off, near-zero overhead.
  TraceContext* trace = nullptr;
  /// If set, a degraded distributed scatter (engine/remote_shard.h) records
  /// the indices of shards whose slices are missing from the answer here;
  /// left empty for complete answers. Callers that pass this accept
  /// partial answers — the service layer flags them X-Solap-Partial.
  std::vector<size_t>* missing_shards = nullptr;
  /// If set, receives the engine epoch this execution's snapshot was taken
  /// at (EpochGate). Two answers reporting the same epoch saw identical
  /// engine state — the streaming-ingestion consistency contract.
  uint64_t* epoch_out = nullptr;
};

/// \brief The S-OLAP system facade.
///
/// Construct either over an event table (+ hierarchy registry), in which
/// case S-cuboid formation steps 1-4 run through the sequence query engine,
/// or over a pre-formed raw SequenceGroupSet (synthetic workloads that have
/// no event attributes beyond the symbol stream).
///
/// Query execution (`Execute` and the offline index builders) is
/// thread-safe: the repository, sequence cache and per-group index caches
/// synchronize internally (shared-lock reads, exclusive cache-populating
/// writes), and each execution counts into a private ScanStats merged into
/// the engine totals under a mutex. Mutating calls — `IngestRows`,
/// `EvictBefore`, `AppendRawSequences` and `NotifyTableAppend` —
/// serialize against queries through the engine's EpochGate
/// (common/epoch.h): every execution holds the gate shared for its whole
/// run and observes one consistent epoch, so writers no longer need the
/// caller to quiesce (see DESIGN.md §11, docs/INGESTION.md).
class SOlapEngine {
 public:
  SOlapEngine(const EventTable* table, const HierarchyRegistry* hierarchies,
              EngineOptions options = {});
  /// Mutable-table overload: identical, but additionally enables the
  /// streaming-ingestion write path (`IngestRows`, `EvictBefore`) on this
  /// engine — the table must outlive it and must not be mutated behind the
  /// engine's back.
  SOlapEngine(EventTable* table, const HierarchyRegistry* hierarchies,
              EngineOptions options = {});
  SOlapEngine(std::shared_ptr<SequenceGroupSet> raw_groups,
              const HierarchyRegistry* hierarchies,
              EngineOptions options = {});

  SOlapEngine(const SOlapEngine&) = delete;
  SOlapEngine& operator=(const SOlapEngine&) = delete;

  // -- Query execution -----------------------------------------------------

  /// Executes `spec` with the default strategy. Results are served from the
  /// cuboid repository when the identical specification was answered before.
  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec);
  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec,
                                                 ExecStrategy strategy);
  /// Full-control variant: cancellation/deadline token and per-query stats.
  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec,
                                                 ExecStrategy strategy,
                                                 const ExecControl& control);

  // -- Offline index precomputation (paper §4.2.2) ---------------------------

  /// Builds the complete size-m inverted index whose positions all use
  /// `position_ref` for every sequence group formed by `spec`'s formation
  /// clauses (the paper precomputes size-2 indices at the finest level).
  Status PrecomputeIndex(const CuboidSpec& spec, size_t m,
                         const LevelRef& position_ref);

  /// Runs S-cuboid formation steps 1-4 for `spec` and stores the result in
  /// the sequence cache. Benchmarks call this so that query timings measure
  /// S-cuboid construction (steps 5-6), matching the paper's architecture
  /// where formation is offloaded and cached (Fig. 6). A windowed spec
  /// caches its base formation too (DESIGN.md "Derived formations").
  Status WarmSequenceCache(const SequenceSpec& spec);

  /// Builds the complete index of `shape` for every sequence group formed
  /// by `formation` and caches them (PrecomputeIndex's build step, also
  /// callable directly with a hand-picked shape).
  Status MaterializeIndex(const SequenceSpec& formation,
                          const IndexShape& shape);

  // -- Incremental update (paper §6) ----------------------------------------

  /// Raw-group engines: appends new sequences (base-code streams) to group
  /// `group_idx` under the epoch gate and maintains the caches through the
  /// same routine as IngestRows: the new sids are appended to the group's
  /// cached complete indices in place (join-derived filtered indices are
  /// dropped), patchable cached cuboids are delta-patched, the rest are
  /// invalidated.
  Status AppendRawSequences(size_t group_idx,
                            const std::vector<std::vector<Code>>& sequences);

  /// Table-backed engines whose table was appended to by someone else (the
  /// sharded facade's shards and its fallback): catches every cached
  /// formation up to the end of the table exactly as IngestRows does after
  /// its own append — extended where the new rows only add cluster keys,
  /// invalidated otherwise — and maintains indices and cuboids through the
  /// same routine. Traced as an `ingest.append` span noted
  /// `scope=catch_up`.
  void NotifyTableAppend(TraceContext* trace = nullptr);

  // -- Streaming ingestion (docs/INGESTION.md) -------------------------------

  /// Appends a batch of event rows under the epoch gate, then catches the
  /// caches up (NotifyTableAppend's body): formations whose new rows only
  /// introduce NEW cluster keys are extended in place (new sequences append
  /// at the tail, their sids are appended to cached complete indices in
  /// place, patchable cached cuboids are delta-patched); a batch that
  /// touches an EXISTING cluster key conservatively invalidates that
  /// formation and its dependents. All-or-nothing: a validation failure
  /// rejects the whole batch and the epoch does not advance (nor for an
  /// empty batch). `epoch_out` (if set) receives the epoch the batch
  /// committed, which a later epoch() may already have moved past.
  /// Requires the mutable-table constructor; InvalidArgument otherwise.
  Status IngestRows(const std::vector<std::vector<Value>>& rows,
                    TraceContext* trace = nullptr,
                    uint64_t* epoch_out = nullptr);

  /// Applies a replicated dictionary tail to the backing table under the
  /// write gate: codes [from, from+values.size()) must match the sender's.
  /// The remote-append path (net/shard_routes.cc) uses this to keep a
  /// replica's dictionaries code-identical to its coordinator slice before
  /// the replicated rows are re-encoded. Not an observable mutation — no
  /// row references the new codes yet — so the epoch does not advance.
  Status SyncTableDictionary(int col, size_t from,
                             const std::vector<std::string>& values);

  /// Time-window retention: logically evicts every row whose int64 or
  /// timestamp column `order_attr` is below `cutoff`. Formed groups,
  /// indices and cuboids are invalidated (their governor charges refunded);
  /// subsequent formations — fresh or incremental — apply the cutoff, so
  /// rebuilds and extensions agree on the visible data. Monotone: a cutoff
  /// below the current one is a no-op on the filter (epoch still advances).
  Status EvictBefore(const std::string& order_attr, int64_t cutoff);

  /// The engine epoch (EpochGate) — advances on every committed mutation,
  /// even while a writer is inside its critical section.
  uint64_t epoch() const { return gate_.epoch(); }

  /// Always {0, 0} (no delta segments); kept for perfbench/src/ingest.cc:269.
  struct DeltaStats {
    size_t segments = 0;
    size_t bytes = 0;
  };
  DeltaStats DeltaSnapshot() const { return {}; }

  // -- Introspection ---------------------------------------------------------

  /// Direct reference to the engine totals — single-threaded use only
  /// (benches, tests). Concurrent readers use StatsSnapshot().
  ScanStats& stats() { return stats_; }
  /// Consistent copy of the engine totals, safe under concurrent queries.
  ScanStats StatsSnapshot() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  const CuboidRepository& repository() const { return repository_; }
  /// Bytes of inverted indices currently cached across all groups.
  size_t IndexCacheBytes() const;
  /// The engine-wide memory budget accountant (resident caches + join
  /// scratch). Thread-safe for reads; the budget is fixed at construction.
  const MemoryGovernor& governor() const { return governor_; }

  const HierarchyRegistry* hierarchies() const { return hierarchies_; }

  // -- Introspection for the optimizer and tools ----------------------------

  /// The sequence groups `seq` resolves to (cached formation). A formation
  /// derived here counts into `stats`, or into the engine totals when null.
  Result<std::shared_ptr<SequenceGroupSet>> GroupsFor(
      const SequenceSpec& s, ScanStats* stats = nullptr);
  /// Ordinals of the groups surviving `spec`'s global slices.
  Result<std::vector<size_t>> SelectedGroupsFor(const SequenceGroupSet& set,
                                                const CuboidSpec& spec) const {
    return SelectGroups(set, spec);
  }
  /// The index cache of one group, or nullptr if none exists yet. The
  /// caller's reference keeps it alive even if its set leaves the cache.
  std::shared_ptr<const GroupIndexCache> FindIndexCache(
      const SequenceGroupSet& set, size_t group_idx);

 private:
  /// Everything resolved once per query execution.
  struct QueryContext {
    const CuboidSpec* spec = nullptr;
    PatternTemplate tmpl;    // plain templates
    RegexTemplate rtmpl;     // regex templates (spec->is_regex())
    std::shared_ptr<SequenceGroupSet> groups;
    std::vector<size_t> selected_groups;
    int measure_col = -1;
    SCuboid* cuboid = nullptr;
    /// This execution's private counters (merged into stats_ at the end).
    ScanStats* stats = nullptr;
    /// Cancellation/deadline token, nullptr when uncontrolled.
    const StopToken* stop = nullptr;
    /// Span sink of this execution, nullptr when tracing is off.
    TraceContext* trace = nullptr;
  };

  Result<std::shared_ptr<const SCuboid>> ExecuteWithStats(
      const CuboidSpec& spec, ExecStrategy strategy,
      const ExecControl& control, ScanStats* stats);
  /// ExecuteWithStats body; bad_alloc escaping it is caught at the query
  /// boundary (ExecuteWithStats) and mapped to ResourceExhausted.
  Result<std::shared_ptr<const SCuboid>> ExecuteGuarded(
      const CuboidSpec& spec, ExecStrategy strategy,
      const ExecControl& control, ScanStats* stats);
  /// Resolves `spec` into a context counting into `stats`; notes how the
  /// formation was obtained on `span` (the query's `prepare` span) if set.
  Result<QueryContext> Prepare(const CuboidSpec& spec, SCuboid* cuboid,
                               ScanStats* stats, TraceSpan* span = nullptr);
  /// Applies human-readable labels to every cell of `cuboid` (shared by the
  /// query finalize step and the ingest-time cuboid patcher).
  static Status LabelCells(SCuboid* cuboid, const SequenceGroupSet& set,
                           const HierarchyRegistry* reg,
                           const std::vector<PatternDim>& dims);
  /// The formation of `s`: cached, derived from the cached formation of its
  /// unwindowed base (DESIGN.md "Derived formations"), or built from the
  /// table. Counts a derivation into `stats`; notes `formation=hit|derived|
  /// built` (and `base_sequences` when derived) on `span` if set.
  Result<std::shared_ptr<SequenceGroupSet>> GetGroups(
      const SequenceSpec& s, ScanStats* stats, TraceSpan* span = nullptr);
  Result<std::vector<size_t>> SelectGroups(const SequenceGroupSet& set,
                                           const CuboidSpec& spec) const;
  std::vector<DimDescriptor> MakeDimDescriptors(const CuboidSpec& spec) const;

  /// Per-assignment measure total over the matched events (`idx`) or, for
  /// the data-go restriction, over the whole sequence.
  double ContentSum(const QueryContext& ctx, SequenceGroup& group, Sid s,
                    const uint32_t* idx, size_t m, bool whole_sequence) const;

  /// Folds one assignment into `cuboid`.
  void AddAssignment(const QueryContext& ctx, SequenceGroup& group,
                     const BoundPattern& bp, const PatternKey& dim_codes,
                     Sid s, const uint32_t* idx, SCuboid* cuboid) const;

  // Regex templates (engine/regex_exec.cc): always a counter-based scan.
  Status RunRegex(QueryContext& ctx);

  // CB strategy (engine/counter_based.cc).
  Status RunCounterBased(QueryContext& ctx);
  /// Scans sequences [begin, end) of one group, folding assignments into
  /// `cuboid` and counting into `stats` — the unit shared by the CB scan
  /// and the cuboid delta patch (engine/ingest.cc).
  Status CounterScanRange(const QueryContext& ctx, SequenceGroup& group,
                          const BoundPattern& bp, Sid begin, Sid end,
                          SCuboid* cuboid, ScanStats* stats) const;

  // II strategy (engine/query_indices.cc).
  Status RunInvertedIndex(QueryContext& ctx);
  Result<std::shared_ptr<InvertedIndex>> ObtainIndex(
      GroupIndexCache& cache, SequenceGroup& group,
      const SequenceGroupSet& set, const PatternTemplate& tmpl,
      const BoundPattern& bp, ScanStats* stats, const StopToken* stop,
      TraceContext* trace);
  /// Counting step shared by both strategies' index path (Fig. 15 l. 10-11).
  Status CountFromIndex(QueryContext& ctx, SequenceGroup& group,
                        const BoundPattern& bp, const InvertedIndex& index);

  /// Fine-to-coarse code map between two levels of a string dimension.
  Result<std::vector<Code>> LevelMapFor(const SequenceGroupSet& set,
                                        const std::string& attr,
                                        int from_level, int to_level) const;

  /// The index caches of `set`: the raw set's, or those its sequence
  /// cache entry owns. A set the cache does not hold (refused by the
  /// governor, or evicted) gets empty ones that are not kept: nothing
  /// could reach them again, so they die with the caller's reference.
  std::shared_ptr<FormationIndexCaches> IndexCachesOf(
      const SequenceGroupSet& set);

  // -- Streaming-ingestion internals (engine/ingest.cc) ----------------------

  using FormationDeltas =
      std::unordered_map<SequenceGroupSet*, std::vector<GroupDelta>>;

  /// Forms the table rows past each cached formation's formed_rows() with
  /// SequenceQueryEngine::Extend, the routine that builds formations, so
  /// the new sequences land at the tails of their groups. A formation the
  /// extension refuses (a new row joins an existing cluster key) is
  /// invalidated, with its index caches; then runs MaintainCaches over the
  /// touched groups. Caller holds the exclusive gate.
  void CatchUpFormations(ScanStats* stats);

  /// The one cache-maintenance step after any append, run by every writer
  /// under the exclusive gate: for each touched group, drops its symbol
  /// views and appends the new sids to its cached complete indices in place
  /// (filtered ones are dropped); then patches or invalidates the cuboid
  /// repository.
  void MaintainCaches(const FormationDeltas& deltas, ScanStats* stats);

  /// Walks the cuboid repository after an append: delta-patches entries
  /// whose spec is AppendPatchable and whose formation was extended,
  /// invalidates the rest (counted in stats).
  void PatchOrInvalidateCuboids(const FormationDeltas& deltas,
                                ScanStats* stats);

  /// The formation `s` resolves to if it is already formed (raw engines:
  /// always raw_groups_), else nullptr.
  std::shared_ptr<SequenceGroupSet> FormedGroups(const SequenceSpec& s) const;

  /// Folds one execution's counters into the engine totals.
  void MergeStats(const ScanStats& delta) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ += delta;
  }

  const EventTable* table_ = nullptr;
  /// Non-null only via the mutable-table constructor; gates IngestRows.
  EventTable* mutable_table_ = nullptr;
  std::shared_ptr<SequenceGroupSet> raw_groups_;
  const HierarchyRegistry* hierarchies_;
  EngineOptions options_;

  /// Serializes mutations (ingest, eviction, admin calls) against
  /// query executions; the source of the query-visible epoch.
  EpochGate gate_;

  /// Retention window installed by EvictBefore (read under the shared
  /// gate by formation, written under the exclusive gate).
  RowFilter retention_;

  // Declared before every cache that charges it: caches refund their
  // charges on destruction, so the governor must be torn down last.
  MemoryGovernor governor_;
  // Each entry owns the index caches of its formation.
  SequenceCache sequence_cache_;
  CuboidRepository repository_;
  // The index caches of raw_groups_ (raw-group engines only).
  std::shared_ptr<FormationIndexCaches> raw_index_caches_;
  ScanStats stats_;
  mutable std::mutex stats_mu_;
};

}  // namespace solap

#endif  // SOLAP_ENGINE_ENGINE_H_
