// Execution statistics collected while answering S-OLAP queries.
//
// The paper's evaluation (Table 1, Figure 16) reports not only runtimes but
// also the number of data sequences scanned and the size of the inverted
// indices built; ScanStats is the counter block every execution path
// increments so benchmarks can report the same columns.
#ifndef SOLAP_COMMON_STATS_H_
#define SOLAP_COMMON_STATS_H_

#include <cstdint>
#include <string>

namespace solap {

/// \brief Counters describing the work done by one or more query executions.
struct ScanStats {
  /// Number of data sequences whose content was examined (CB scan,
  /// II verification / counting / refinement scans).
  uint64_t sequences_scanned = 0;
  /// Number of inverted lists materialized.
  uint64_t lists_built = 0;
  /// Number of list-intersection operations performed by index joins.
  uint64_t list_intersections = 0;
  /// Breakdown of `list_intersections` by the container kernels that ran
  /// (index/container.h): a pair touching a bitmap container counts as
  /// bitmap, else one that galloped as galloping, else linear.
  uint64_t intersections_linear = 0;
  uint64_t intersections_galloping = 0;
  uint64_t intersections_bitmap = 0;
  /// Container-pair kernel mix inside those intersections and inside
  /// P-ROLL-UP unions (index/container.h): array×array merges, pairs
  /// touching a bitmap container, pairs touching a run container, and
  /// skewed array pairs that galloped.
  uint64_t container_array_ops = 0;
  uint64_t container_bitmap_ops = 0;
  uint64_t container_run_ops = 0;
  uint64_t container_gallop_ops = 0;
  /// Bytes of inverted-index storage created (sid entries + keys).
  uint64_t index_bytes_built = 0;
  /// Number of cuboid-repository hits (queries answered from cache).
  uint64_t repository_hits = 0;
  /// Number of index-cache hits (joins avoided entirely).
  uint64_t index_cache_hits = 0;
  /// Queries whose II execution failed transiently (budget reject, injected
  /// fault, bad_alloc) and were re-answered via the CB path.
  uint64_t degraded_queries = 0;
  /// Scatter-gather sharding (engine/sharded_engine.h): queries fanned out
  /// across shard-local executors.
  uint64_t shard_scatters = 0;
  /// Shard-local partial cuboids produced and gathered by scattered queries.
  uint64_t shard_partials = 0;
  /// Cells folded while merging shard partials into the final cuboid.
  uint64_t shard_merged_cells = 0;
  /// Queries a sharded engine could not scatter (a CLUSTER BY without the
  /// shard attribute at its base level) and routed to its monolithic
  /// fallback executor.
  uint64_t shard_fallbacks = 0;
  /// Distributed scatter (engine/remote_shard.h): shard RPC attempts beyond
  /// the first, and queries answered with one or more shard slices missing.
  uint64_t shard_rpc_retries = 0;
  /// Always 0 (shard RPCs are not hedged). Kept because v1 shard
  /// partials (cube/partial_codec.cc) and perfbench carry the field.
  uint64_t shard_rpc_hedges = 0;
  uint64_t partial_answers = 0;
  /// Streaming ingestion (engine/ingest.cc, docs/INGESTION.md): event rows
  /// committed through IngestRows, background/foreground delta-merge passes
  /// that folded at least one delta segment, cached cuboids delta-patched in
  /// place, cached cuboids invalidated because their spec could not be
  /// patched (regex, iceberg, or a stale formation), and cached formations
  /// dropped because an append touched an existing cluster key.
  uint64_t ingested_events = 0;
  uint64_t delta_merges = 0;
  uint64_t cuboid_patches = 0;
  uint64_t stale_cuboid_invalidations = 0;
  uint64_t formation_invalidations = 0;
  /// Windowed formations derived from the cached formation of their
  /// unwindowed base instead of built from the table (DESIGN.md "Derived
  /// formations"); one per shard that derived.
  uint64_t formations_derived = 0;

  void Clear() { *this = ScanStats{}; }

  ScanStats& operator+=(const ScanStats& o) {
    sequences_scanned += o.sequences_scanned;
    lists_built += o.lists_built;
    list_intersections += o.list_intersections;
    intersections_linear += o.intersections_linear;
    intersections_galloping += o.intersections_galloping;
    intersections_bitmap += o.intersections_bitmap;
    container_array_ops += o.container_array_ops;
    container_bitmap_ops += o.container_bitmap_ops;
    container_run_ops += o.container_run_ops;
    container_gallop_ops += o.container_gallop_ops;
    index_bytes_built += o.index_bytes_built;
    repository_hits += o.repository_hits;
    index_cache_hits += o.index_cache_hits;
    degraded_queries += o.degraded_queries;
    shard_scatters += o.shard_scatters;
    shard_partials += o.shard_partials;
    shard_merged_cells += o.shard_merged_cells;
    shard_fallbacks += o.shard_fallbacks;
    shard_rpc_retries += o.shard_rpc_retries;
    shard_rpc_hedges += o.shard_rpc_hedges;
    partial_answers += o.partial_answers;
    ingested_events += o.ingested_events;
    delta_merges += o.delta_merges;
    cuboid_patches += o.cuboid_patches;
    stale_cuboid_invalidations += o.stale_cuboid_invalidations;
    formation_invalidations += o.formation_invalidations;
    formations_derived += o.formations_derived;
    return *this;
  }

  /// One-line human-readable rendering for logs and benches.
  std::string ToString() const;
};

}  // namespace solap

#endif  // SOLAP_COMMON_STATS_H_
