// Sharded scatter-gather execution (ROADMAP item 1, the step from one box
// toward many): N shard-local SOlapEngines, each owning a hash-partitioned
// slice of the sequences plus its own caches and memory sub-budget, behind
// a facade that scatters queries to the shards and gathers their partial
// cuboids with a distributive merge (cube/partial_merge.h).
//
// Partitioning happens once at construction: table-backed data splits by a
// mix of the shard-by column's base code (EventTable::PartitionRows, which
// clones dictionaries so codes stay comparable across slices); raw group
// sets split each group into contiguous sid blocks. Either way a logical
// sequence lives entirely in exactly one shard, so shard-local CB scans and
// II joins see complete sequences and their per-cell counter state merges
// additively — Gray's partial-aggregation shape.
//
// The facade has exactly two shapes:
//  - one shard: every call delegates to that executor, which the facade
//    either owns (shards == 1) or borrows from the caller
//    (ShardedEngine(SOlapEngine*)) — bit-identical to a plain SOlapEngine;
//  - N shards: queries scatter and gather. Queries a sharded engine cannot
//    scatter (CLUSTER BY without the shard-by attribute at base level)
//    route to a monolithic fallback engine over the full data, built on
//    the first such query (or by Monolith(), which EXPLAIN uses) with its
//    own full memory budget.
#ifndef SOLAP_ENGINE_SHARDED_ENGINE_H_
#define SOLAP_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "solap/engine/engine.h"
#include "solap/engine/remote_shard.h"

namespace solap {

/// \brief Scatter-gather facade over N shard-local executors.
///
/// Mirrors the SOlapEngine query surface (Execute / offline builders /
/// streaming ingestion / introspection) so QueryService, the shell and the
/// benches can hold either transparently. Thread-safe to the same degree as
/// SOlapEngine: concurrent Execute calls are safe, and the writers
/// (IngestRows, EvictBefore) serialize against them through an epoch gate.
/// EnableRemoteScatter must run before the first query.
class ShardedEngine {
 public:
  /// Table-backed: partitions `table`'s rows into options.shards slices by
  /// the base code of options.shard_by (default: first string column).
  ShardedEngine(const EventTable* table, const HierarchyRegistry* hierarchies,
                EngineOptions options = {});
  /// Mutable-table overload: identical, but additionally enables the
  /// streaming-ingestion write path (`IngestRows`, `EvictBefore`) — appends
  /// route to the owning shard via the shard-by column's placement hash.
  ShardedEngine(EventTable* table, const HierarchyRegistry* hierarchies,
                EngineOptions options = {});
  /// Raw-group-backed: splits every group of `raw_groups` into
  /// options.shards contiguous sid blocks.
  ShardedEngine(std::shared_ptr<SequenceGroupSet> raw_groups,
                const HierarchyRegistry* hierarchies,
                EngineOptions options = {});
  /// The one-shard shape over an engine owned elsewhere (QueryService's
  /// SOlapEngine constructor): every call delegates to `borrowed`.
  explicit ShardedEngine(SOlapEngine* borrowed);

  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // -- Query execution (SOlapEngine-compatible surface) ---------------------

  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec);
  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec,
                                                 ExecStrategy strategy);
  Result<std::shared_ptr<const SCuboid>> Execute(const CuboidSpec& spec,
                                                 ExecStrategy strategy,
                                                 const ExecControl& control);

  // -- Offline index precomputation -----------------------------------------

  /// Fan out to every shard (each builds/caches over its slice).
  Status PrecomputeIndex(const CuboidSpec& spec, size_t m,
                         const LevelRef& position_ref);
  Status WarmSequenceCache(const SequenceSpec& spec);
  Status MaterializeIndex(const SequenceSpec& formation,
                          const IndexShape& shape);

  // -- Streaming ingestion (docs/INGESTION.md) -------------------------------

  /// Appends a batch of event rows, routing each to the shard that owns its
  /// sequence (ShardOfCode over the shard-by column's base code) after
  /// synchronizing the shard dictionaries with the facade table's. Each
  /// owning shard then maintains its caches incrementally (delta segments,
  /// cuboid patches) exactly as a monolithic engine would; the facade's
  /// merged-cuboid repository is invalidated. With remote scatter enabled,
  /// the batch is also replicated to the shard servers (POST /shard/append)
  /// so remote slices stay in sync. Requires the mutable-table constructor.
  Status IngestRows(const std::vector<std::vector<Value>>& rows,
                    TraceContext* trace = nullptr);

  /// Time-window retention, fanned out to every shard (facade caches are
  /// invalidated too). See SOlapEngine::EvictBefore.
  Status EvictBefore(const std::string& order_attr, int64_t cutoff);

  /// The facade epoch: one gate serializes facade-level writers against
  /// scattered query executions; the one-shard shape reports its
  /// executor's epoch so callers see one coherent counter either way.
  uint64_t epoch() const;

  /// Foreground delta merge across every shard.
  Status MergeDeltasNow(TraceContext* trace = nullptr);

  /// Delta-segment footprint summed over all shards.
  SOlapEngine::DeltaStats DeltaSnapshot() const;

  // -- Introspection ---------------------------------------------------------

  /// Engine totals. The one-shard shape reports its executor's counters;
  /// the N-shard shape keeps facade-level totals where each scattered
  /// query contributes its *merged* per-shard counters once.
  ScanStats& stats();
  ScanStats StatsSnapshot() const;
  /// Bytes of inverted indices cached across all shards (+ fallback).
  size_t IndexCacheBytes() const;
  /// Memory accounting summed over the shard governors (+ fallback): the
  /// budget is what the governors enforce — budget/N per shard, plus the
  /// fallback's full budget once it exists.
  size_t MemUsed() const;
  size_t MemBudget() const;
  size_t MemRejects() const;

  const HierarchyRegistry* hierarchies() const { return hierarchies_; }
  const EngineOptions& options() const { return options_; }

  size_t num_shards() const { return shards_.size(); }

  /// The monolithic engine over the full data: in the one-shard shape its
  /// executor; otherwise the lazily-built fallback that answers
  /// non-shardable queries and serves optimizer introspection (EXPLAIN).
  SOlapEngine* Monolith();

  /// True when `spec` can scatter (or there is one shard): raw mode
  /// always; table mode iff the CLUSTER BY includes the shard-by attribute
  /// at its base level (a coarser level could split one logical sequence
  /// across shards).
  bool Shardable(const CuboidSpec& spec) const;

  // -- Distributed scatter (ISSUE 9) ----------------------------------------

  /// Switches the scatter path from in-process shard executors to remote
  /// shard servers: shard i's slice is executed by `endpoints[i]` via
  /// RemoteShardClient. endpoints.size() must equal num_shards() (> 1).
  /// The local shard executors stay alive — they are the degraded-mode
  /// fallback that re-executes a dead shard's slice bit-identically.
  Status EnableRemoteScatter(const std::vector<ShardEndpoint>& endpoints,
                             RemoteShardOptions rpc = {},
                             DegradePolicy policy = DegradePolicy::kStrict,
                             bool local_fallback = true,
                             MetricsRegistry* metrics = nullptr);
  bool remote_scatter() const { return !remote_clients_.empty(); }
  /// Supervisor seam: an unhealthy shard is skipped (no RPC, no retry
  /// budget burned) and goes straight to the degradation policy.
  void SetShardHealthy(size_t i, bool healthy);
  bool ShardHealthy(size_t i) const;

 private:
  void BuildShards();
  void AddShard(std::unique_ptr<SOlapEngine> shard);

  /// The scatter-gather path (num_shards() > 1 and Shardable(spec)).
  Result<std::shared_ptr<const SCuboid>> ExecuteScatter(
      const CuboidSpec& spec, ExecStrategy strategy,
      const ExecControl& control, ScanStats* stats);

  ThreadPool* ScatterPool();

  void MergeStats(const ScanStats& delta) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ += delta;
  }

  /// Sums `fn` over every executor: the shards, then the fallback if built.
  template <typename Fn>
  size_t SumOverExecutors(Fn fn) const {
    size_t total = 0;
    for (const SOlapEngine* shard : shards_) total += fn(*shard);
    std::lock_guard<std::mutex> lock(fallback_mu_);
    if (fallback_) total += fn(*fallback_);
    return total;
  }

  // Construction inputs (table XOR raw_groups, as with SOlapEngine).
  const EventTable* table_ = nullptr;
  /// Non-null only via the mutable-table constructor; gates IngestRows.
  EventTable* mutable_table_ = nullptr;
  /// Facade-level writer/reader gate (N-shard shape; shard engines gate
  /// their own slices, this one makes multi-shard mutations atomic with
  /// respect to scattered executions).
  EpochGate gate_;
  std::shared_ptr<SequenceGroupSet> raw_groups_;
  const HierarchyRegistry* hierarchies_ = nullptr;
  EngineOptions options_;

  // Resolved shard-by column (table mode; -1 = unsharded).
  int shard_col_ = -1;
  std::string shard_attr_;

  // Partitioned table slices, one per shard (N-shard table mode only).
  std::vector<std::unique_ptr<EventTable>> shard_tables_;

  /// The executors every call goes through; shards_.size() is the shape.
  /// Non-owning: they point into owned_shards_, or at a borrowed engine.
  std::vector<SOlapEngine*> shards_;
  std::vector<std::unique_ptr<SOlapEngine>> owned_shards_;

  // Lazily-built monolithic fallback (N-shard shape only).
  std::unique_ptr<SOlapEngine> fallback_;
  mutable std::mutex fallback_mu_;

  // Facade-level cuboid repository: scattered queries cache their merged
  // result here (shard repositories are disabled), so a repeat query costs
  // one lookup and counts repository_hits once — same accounting as the
  // monolithic engine.
  std::unique_ptr<CuboidRepository> repository_;

  // Distributed scatter state (EnableRemoteScatter): one RPC client per
  // shard, a health flag per shard (written by the supervisor thread, read
  // by scatters), and the degradation policy.
  std::vector<std::unique_ptr<RemoteShardClient>> remote_clients_;
  std::unique_ptr<std::atomic<bool>[]> shard_healthy_;
  DegradePolicy degrade_policy_ = DegradePolicy::kStrict;
  bool remote_local_fallback_ = true;

  // Scatter fan-out pool (N-shard shape; sized by EngineOptions::exec_threads,
  // clamped to the shard count). nullptr = scatter runs inline.
  std::unique_ptr<ThreadPool> scatter_pool_;
  bool scatter_pool_created_ = false;
  std::mutex scatter_pool_mu_;

  ScanStats stats_;
  mutable std::mutex stats_mu_;
};

}  // namespace solap

#endif  // SOLAP_ENGINE_SHARDED_ENGINE_H_
