// Execution statistics collected while answering S-OLAP queries.
//
// The paper's evaluation (Table 1, Figure 16) reports not only runtimes but
// also the number of data sequences scanned and the size of the inverted
// indices built; ScanStats is the counter block every execution path
// increments so benchmarks can report the same columns.
#ifndef SOLAP_COMMON_STATS_H_
#define SOLAP_COMMON_STATS_H_

#include <cstdint>
#include <iterator>
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

  /// Sums every counter (kStatsFields): all of them are distributive.
  ScanStats& operator+=(const ScanStats& o);

  /// One-line `key=value` rendering of every counter, in table order, for
  /// logs and benches.
  std::string ToString() const;
};

/// One row per ScanStats counter, and the only list of them: merging,
/// ToString, the shard-partial codec (cube/partial_codec.cc), the query
/// service's per-query /metrics counters (service/query_service.cc) and
/// the docs lint (tools/doc_lint.sh) all walk this table, so adding a
/// counter is one member, one row and its increment site.
struct StatsField {
  /// Codec key and ToString label.
  const char* key;
  uint64_t ScanStats::*member;
  /// /metrics counter the query service advances by each answered query's
  /// value; empty for counters not published per query (the ingest
  /// counters are engine totals, published from their own sites).
  const char* metric;
};

inline constexpr StatsField kStatsFields[] = {
    {"sequences_scanned", &ScanStats::sequences_scanned, "sequences_scanned"},
    {"lists_built", &ScanStats::lists_built, ""},
    {"list_intersections", &ScanStats::list_intersections, ""},
    {"intersections_linear", &ScanStats::intersections_linear, ""},
    {"intersections_galloping", &ScanStats::intersections_galloping, ""},
    {"intersections_bitmap", &ScanStats::intersections_bitmap, ""},
    {"container_array_ops", &ScanStats::container_array_ops,
     "ii_container_array_ops"},
    {"container_bitmap_ops", &ScanStats::container_bitmap_ops,
     "ii_container_bitmap_ops"},
    {"container_run_ops", &ScanStats::container_run_ops,
     "ii_container_run_ops"},
    {"container_gallop_ops", &ScanStats::container_gallop_ops,
     "ii_container_gallop_ops"},
    {"index_bytes_built", &ScanStats::index_bytes_built, ""},
    {"repository_hits", &ScanStats::repository_hits, "repository_hits"},
    {"index_cache_hits", &ScanStats::index_cache_hits, "index_cache_hits"},
    {"degraded_queries", &ScanStats::degraded_queries, "degraded_queries"},
    {"shard_scatters", &ScanStats::shard_scatters, "shard_scatters"},
    {"shard_partials", &ScanStats::shard_partials, "shard_partials"},
    {"shard_merged_cells", &ScanStats::shard_merged_cells,
     "shard_merged_cells"},
    {"shard_fallbacks", &ScanStats::shard_fallbacks, "shard_fallbacks"},
    {"shard_rpc_retries", &ScanStats::shard_rpc_retries, "shard_rpc_retries"},
    {"shard_rpc_hedges", &ScanStats::shard_rpc_hedges, ""},
    {"partial_answers", &ScanStats::partial_answers, "partial_answers"},
    {"ingested_events", &ScanStats::ingested_events, ""},
    {"delta_merges", &ScanStats::delta_merges, ""},
    {"cuboid_patches", &ScanStats::cuboid_patches, ""},
    {"stale_cuboid_invalidations", &ScanStats::stale_cuboid_invalidations,
     ""},
    {"formation_invalidations", &ScanStats::formation_invalidations, ""},
    {"formations_derived", &ScanStats::formations_derived,
     "formations_derived"},
};

// Every member is a uint64_t counter with a row above.
static_assert(sizeof(ScanStats) == std::size(kStatsFields) * sizeof(uint64_t),
              "each ScanStats counter needs a kStatsFields row");

inline ScanStats& ScanStats::operator+=(const ScanStats& o) {
  for (const StatsField& f : kStatsFields) this->*f.member += o.*f.member;
  return *this;
}

}  // namespace solap

#endif  // SOLAP_COMMON_STATS_H_
