// Sharded scatter-gather execution must be invisible to query results:
// partitioning the sequences across N shard-local engines and merging their
// partial cuboids (DESIGN.md "Sharded execution") may change nothing a
// client can observe. These tests pin that contract for 1 vs 2 vs 8 shards
// across a QuerySet-A-style iterative session under both strategies,
// table-backed FP SUM merges, iceberg-after-merge semantics, the
// non-shardable fallback route and its memory budget, concurrent clients
// sharing one parsed spec, and — in failpoint builds — a chaos run with
// every engine failpoint armed.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "solap/common/trace.h"
#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
#include "solap/engine/sharded_engine.h"
#include "solap/gen/synthetic.h"
#include "solap/gen/transit.h"
#include "solap/parser/parser.h"
#include "solap/service/query_service.h"

#ifdef SOLAP_FAILPOINTS
#include "solap/common/failpoint.h"
#include <functional>
#endif

namespace solap {
namespace {

// Exact comparison of the full aggregate state of every cell — the merge
// must reproduce the monolithic engine's doubles to the last ulp, not just
// the counts (same bar as parallel_ii_test).
void ExpectCuboidsIdentical(const SCuboid& a, const SCuboid& b,
                            const std::string& what) {
  ASSERT_EQ(a.num_cells(), b.num_cells()) << what;
  for (const auto& [key, cell] : a.cells()) {
    CellValue other = b.CellAt(key);
    EXPECT_EQ(cell.count, other.count) << what;
    EXPECT_EQ(cell.sum, other.sum) << what;  // exact, not near
    EXPECT_TRUE(cell.min == other.min ||
                (std::isinf(cell.min) && std::isinf(other.min)))
        << what;
    EXPECT_TRUE(cell.max == other.max ||
                (std::isinf(cell.max) && std::isinf(other.max)))
        << what;
  }
}

SyntheticData SmallSynthetic() {
  SyntheticParams p;
  p.num_sequences = 1500;
  p.num_symbols = 20;
  p.mean_length = 8;
  p.seed = 17;
  return GenerateSynthetic(p);
}

CuboidSpec PairSpec() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

EngineOptions ShardOpts(size_t shards) {
  EngineOptions o;
  o.shards = shards;
  // Force a real fan-out pool even on small boxes (the pool is clamped to
  // the shard count; shard-local engines always run serial) so the
  // concurrent scatter path is what TSan and the chaos mode exercise.
  o.exec_threads = 4;
  return o;
}

// One query of a QuerySet-A iterative session (paper §5.2): slice the
// previous result's top cell, APPEND a fresh symbol, run. Mirrors
// bench_util.h RunQaSession but keeps the result cuboids and per-query
// stats for comparison.
struct QaStep {
  std::shared_ptr<const SCuboid> cuboid;
  ScanStats stats;
};

std::vector<QaStep> RunQa(ShardedEngine& engine, ExecStrategy strategy,
                          size_t num_queries) {
  std::vector<QaStep> out;
  CuboidSpec spec = PairSpec();
  const LevelRef append_ref{SyntheticData::kAttr, "symbol"};
  for (size_t q = 0; q < num_queries; ++q) {
    if (q > 0) {
      CellKey top = out.back().cuboid->ArgMaxCell();
      if (top.empty()) break;
      auto sliced = ops::SliceToCell(spec, *out.back().cuboid, top);
      if (!sliced.ok()) ADD_FAILURE() << sliced.status().ToString();
      auto appended =
          ops::Append(*sliced, "S" + std::to_string(q), append_ref);
      if (!appended.ok()) ADD_FAILURE() << appended.status().ToString();
      spec = *appended;
    }
    QaStep step;
    ExecControl control;
    control.stats_out = &step.stats;
    auto r = engine.Execute(spec, strategy, control);
    if (!r.ok()) {
      ADD_FAILURE() << "QA" << (q + 1) << ": " << r.status().ToString();
      break;
    }
    step.cuboid = *r;
    out.push_back(std::move(step));
  }
  return out;
}

TEST(ShardedEngine, OneShardIsBitIdenticalToPlainEngine) {
  SyntheticData data = SmallSynthetic();
  SOlapEngine plain(data.groups, data.hierarchies.get());
  ShardedEngine sharded(data.groups, data.hierarchies.get(), ShardOpts(1));
  CuboidSpec spec = PairSpec();
  for (ExecStrategy s :
       {ExecStrategy::kCounterBased, ExecStrategy::kInvertedIndex}) {
    auto a = plain.Execute(spec, s);
    auto b = sharded.Execute(spec, s);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectCuboidsIdentical(**a, **b, "1-shard delegate");
  }
  // The legacy path, not the scatter path: no scatter counters tick.
  EXPECT_EQ(sharded.StatsSnapshot().shard_scatters, 0u);
  EXPECT_EQ(sharded.StatsSnapshot().shard_fallbacks, 0u);
  EXPECT_EQ(plain.stats().sequences_scanned,
            sharded.StatsSnapshot().sequences_scanned);
}

// The tentpole invariant: a QuerySet-A session (QA1..QA5) returns
// bit-identical cuboids whether the data lives in 1, 2 or 8 shards, under
// both pinned strategies, and the summed ScanStats agree on the
// partition-invariant counter (every sequence is scanned by exactly one
// shard).
TEST(ShardedEngine, QaSessionBitIdenticalAcross1v2v8Shards) {
  SyntheticData data = SmallSynthetic();
  for (ExecStrategy strategy :
       {ExecStrategy::kCounterBased, ExecStrategy::kInvertedIndex}) {
    const char* sname =
        strategy == ExecStrategy::kCounterBased ? "CB" : "II";
    ShardedEngine one(data.groups, data.hierarchies.get(), ShardOpts(1));
    ShardedEngine two(data.groups, data.hierarchies.get(), ShardOpts(2));
    ShardedEngine eight(data.groups, data.hierarchies.get(), ShardOpts(8));
    auto qa1 = RunQa(one, strategy, 5);
    auto qa2 = RunQa(two, strategy, 5);
    auto qa8 = RunQa(eight, strategy, 5);
    ASSERT_EQ(qa1.size(), qa2.size()) << sname;
    ASSERT_EQ(qa1.size(), qa8.size()) << sname;
    for (size_t q = 0; q < qa1.size(); ++q) {
      const std::string what =
          std::string(sname) + " QA" + std::to_string(q + 1);
      ExpectCuboidsIdentical(*qa1[q].cuboid, *qa2[q].cuboid,
                             what + " 1v2 shards");
      ExpectCuboidsIdentical(*qa1[q].cuboid, *qa8[q].cuboid,
                             what + " 1v8 shards");
      // Top cell drives the next slice; pin it explicitly too.
      EXPECT_EQ(qa1[q].cuboid->ArgMaxCell(), qa8[q].cuboid->ArgMaxCell())
          << what;
      // Merged per-query stats: the shards together scan exactly the
      // sequences the monolith scans.
      EXPECT_EQ(qa1[q].stats.sequences_scanned,
                qa8[q].stats.sequences_scanned)
          << what;
    }
    // Engine-total ScanStats sums agree too.
    EXPECT_EQ(one.StatsSnapshot().sequences_scanned,
              eight.StatsSnapshot().sequences_scanned)
        << sname;
    // And the sharded engines actually scattered.
    EXPECT_EQ(eight.StatsSnapshot().shard_scatters, qa8.size());
    EXPECT_EQ(eight.StatsSnapshot().shard_partials, 8 * qa8.size());
  }
}

TEST(ShardedEngine, ScatterEmitsCountersAndTraceSpans) {
  SyntheticData data = SmallSynthetic();
  ShardedEngine engine(data.groups, data.hierarchies.get(), ShardOpts(4));
  TraceContext trace;
  ScanStats stats;
  ExecControl control;
  control.stats_out = &stats;
  control.trace = &trace;
  auto r = engine.Execute(PairSpec(), ExecStrategy::kCounterBased, control);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.shard_scatters, 1u);
  EXPECT_EQ(stats.shard_partials, 4u);
  EXPECT_GT(stats.shard_merged_cells, 0u);
  EXPECT_EQ(stats.shard_fallbacks, 0u);

  auto spans = trace.Snapshot();
  int scatter_id = -1;
  size_t execs = 0, gathers = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "shard.scatter") scatter_id = static_cast<int>(i);
  }
  ASSERT_GE(scatter_id, 0) << "no shard.scatter span recorded";
  for (const auto& span : spans) {
    if (span.name == "shard.exec") {
      ++execs;
      // Pool-side spans hang under the scatter span that spawned them.
      EXPECT_EQ(span.parent, scatter_id);
    }
    if (span.name == "shard.gather") ++gathers;
  }
  EXPECT_EQ(execs, 4u);
  EXPECT_EQ(gathers, 1u);
}

TEST(ShardedEngine, RepeatQueryHitsFacadeRepository) {
  SyntheticData data = SmallSynthetic();
  ShardedEngine engine(data.groups, data.hierarchies.get(), ShardOpts(4));
  CuboidSpec spec = PairSpec();
  auto first = engine.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(first.ok());
  ScanStats repeat_stats;
  ExecControl control;
  control.stats_out = &repeat_stats;
  auto second = engine.Execute(spec, ExecStrategy::kCounterBased, control);
  ASSERT_TRUE(second.ok());
  ExpectCuboidsIdentical(**first, **second, "repository repeat");
  // Served from the facade repository: one hit, no second scatter.
  EXPECT_EQ(repeat_stats.repository_hits, 1u);
  EXPECT_EQ(repeat_stats.shard_scatters, 0u);
  EXPECT_EQ(engine.StatsSnapshot().shard_scatters, 1u);
}

// Table-backed scatter with a non-summarizable-order measure: COUNT /
// MIN / MAX state merges exactly; FP SUM is merged as partial state, so
// reassociation may change low-order bits but nothing more.
TEST(ShardedEngine, TransitSumMergesExactlyUpToReassociation) {
  TransitParams tp;
  tp.num_passengers = 1200;
  tp.num_days = 2;
  TransitData transit = GenerateTransit(tp);
  CuboidSpec spec;
  spec.agg = AggKind::kSum;
  spec.measure = "amount";
  spec.seq.cluster_by = {{"card-id", "individual"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  EngineOptions sharded_opts = ShardOpts(4);
  sharded_opts.shard_by = "card-id";
  ShardedEngine one(transit.table.get(), transit.hierarchies.get(),
                    ShardOpts(1));
  ShardedEngine four(transit.table.get(), transit.hierarchies.get(),
                     sharded_opts);
  auto a = one.Execute(spec, ExecStrategy::kCounterBased);
  auto b = four.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ((*a)->num_cells(), (*b)->num_cells());
  for (const auto& [key, cell] : (*a)->cells()) {
    CellValue other = (*b)->CellAt(key);
    EXPECT_EQ(cell.count, other.count);
    EXPECT_EQ(cell.min, other.min);  // min/max commute exactly
    EXPECT_EQ(cell.max, other.max);
    EXPECT_NEAR(cell.sum, other.sum, 1e-6 * (1.0 + std::fabs(cell.sum)));
  }
  EXPECT_EQ(four.StatsSnapshot().shard_scatters, 1u);
  EXPECT_EQ(one.StatsSnapshot().sequences_scanned,
            four.StatsSnapshot().sequences_scanned);
}

// CLUSTER BY at a coarser level than the shard-by attribute could group
// rows from different shards into one logical sequence — the engine must
// refuse to scatter and route to the monolithic fallback instead.
TEST(ShardedEngine, CoarseClusterByRoutesToFallback) {
  TransitParams tp;
  tp.num_passengers = 600;
  tp.num_days = 1;
  TransitData transit = GenerateTransit(tp);
  CuboidSpec spec;
  spec.seq.cluster_by = {{"card-id", "fare-group"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""}};

  EngineOptions opts = ShardOpts(4);
  opts.shard_by = "card-id";
  ShardedEngine sharded(transit.table.get(), transit.hierarchies.get(), opts);
  EXPECT_FALSE(sharded.Shardable(spec));
  SOlapEngine plain(transit.table.get(), transit.hierarchies.get());
  auto a = plain.Execute(spec, ExecStrategy::kCounterBased);
  auto b = sharded.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectCuboidsIdentical(**a, **b, "fallback route");
  EXPECT_EQ(sharded.StatsSnapshot().shard_fallbacks, 1u);
  EXPECT_EQ(sharded.StatsSnapshot().shard_scatters, 0u);
}

// MemBudget reports what the governors enforce: budget/N on each shard,
// plus the full budget of the fallback once a non-shardable query built it.
TEST(ShardedEngine, MemBudgetSumsTheShardAndFallbackGovernors) {
  TransitParams tp;
  tp.num_passengers = 300;
  tp.num_days = 1;
  TransitData transit = GenerateTransit(tp);
  EngineOptions opts = ShardOpts(4);
  opts.shard_by = "card-id";
  // Not a multiple of 4, so the shard slices round down.
  opts.memory_budget_bytes = (size_t{64} << 20) + 3;
  const size_t shard_budget = opts.memory_budget_bytes / 4;
  ShardedEngine sharded(transit.table.get(), transit.hierarchies.get(), opts);
  EXPECT_EQ(sharded.MemBudget(), 4 * shard_budget);

  CuboidSpec spec;
  spec.seq.cluster_by = {{"card-id", "fare-group"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""}};
  ASSERT_FALSE(sharded.Shardable(spec));
  auto r = sharded.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(sharded.StatsSnapshot().shard_fallbacks, 1u);
  EXPECT_EQ(sharded.Monolith()->governor().budget(),
            opts.memory_budget_bytes);
  EXPECT_EQ(sharded.MemBudget(),
            4 * shard_budget + sharded.Monolith()->governor().budget());
}

// Iceberg pruning is a HAVING over *global* counts: a cell whose per-shard
// counts all sit below the threshold must still survive when its merged
// count clears it. The facade therefore strips the iceberg from shard
// specs and applies it after the merge.
TEST(ShardedEngine, IcebergAppliedAfterMergeNotPerShard) {
  SyntheticData data = SmallSynthetic();
  CuboidSpec spec = PairSpec();
  SOlapEngine plain(data.groups, data.hierarchies.get());
  auto unfiltered = plain.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(unfiltered.ok());
  // Pick a threshold that filters some cells but keeps others whose
  // per-shard share (count/8) falls below it — the case a per-shard
  // iceberg would wrongly drop.
  int64_t max_count = 0;
  for (const auto& [key, cell] : (*unfiltered)->cells()) {
    max_count = std::max(max_count, cell.count);
  }
  ASSERT_GT(max_count, 16) << "dataset too small for an iceberg threshold";
  spec.iceberg_min_count = max_count / 2;

  auto expect = plain.Execute(spec, ExecStrategy::kCounterBased);
  ShardedEngine eight(data.groups, data.hierarchies.get(), ShardOpts(8));
  auto got = eight.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(expect.ok() && got.ok());
  ASSERT_GT((*expect)->num_cells(), 0u);
  ASSERT_LT((*expect)->num_cells(), (*unfiltered)->num_cells())
      << "threshold did not filter anything";
  ExpectCuboidsIdentical(**expect, **got, "iceberg after merge");
}

// Several clients run scattered WHERE queries — one of them with a matching
// predicate too — built from one parsed spec, so every shard executor of
// every client reads the same expression trees at once. Binding must not
// write into them (the TSan stage of tools/check.sh runs this test), and
// every client must get the monolith's answer.
TEST(ShardedEngine, ConcurrentClientsShareOneParsedWhereSpec) {
  TransitParams tp;
  tp.num_passengers = 600;
  tp.num_days = 2;
  TransitData transit = GenerateTransit(tp);
  const std::string formation = R"(
    SELECT COUNT(*) FROM Event
    WHERE time >= 2007-10-01T06:00 AND time < 2007-10-02T18:00
    CLUSTER BY card-id AT individual
    SEQUENCE BY time ASCENDING
    CUBOID BY SUBSTRING (X, Y)
      WITH X AS location AT station, Y AS location AT station
      LEFT-MAXIMALITY (x1, y1))";
  auto plain = ParseQuery(formation);
  auto matched = ParseQuery(formation + R"(
      WITH x1.action = "in" AND y1.action = "out")");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  const CuboidSpec* specs[] = {&*plain, &*matched};
  const ExecStrategy strategies[] = {ExecStrategy::kCounterBased,
                                     ExecStrategy::kInvertedIndex};

  SOlapEngine mono(transit.table.get(), transit.hierarchies.get());
  std::shared_ptr<const SCuboid> expect[2];
  for (size_t q = 0; q < 2; ++q) {
    auto r = mono.Execute(*specs[q], ExecStrategy::kCounterBased);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT((*r)->num_cells(), 0u);
    expect[q] = *r;
  }

  EngineOptions opts = ShardOpts(4);
  opts.shard_by = "card-id";
  opts.repository_capacity_bytes = 0;  // every run scatters
  ShardedEngine sharded(transit.table.get(), transit.hierarchies.get(), opts);
  constexpr size_t kClients = 4;
  constexpr size_t kRunsPerClient = 4;
  std::vector<std::vector<Result<std::shared_ptr<const SCuboid>>>> got(
      kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t run = 0; run < kRunsPerClient; ++run) {
        got[c].push_back(sharded.Execute(*specs[(c + run) % 2],
                                         strategies[run % 2]));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t run = 0; run < kRunsPerClient; ++run) {
      const auto& r = got[c][run];
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectCuboidsIdentical(*expect[(c + run) % 2], **r,
                             "client " + std::to_string(c) + " run " +
                                 std::to_string(run));
    }
  }
  EXPECT_EQ(sharded.StatsSnapshot().shard_scatters,
            kClients * kRunsPerClient);
}

// The service front: shard counters flow into the metrics registry.
TEST(ShardedEngine, ServiceExportsShardCounters) {
  SyntheticData data = SmallSynthetic();
  ShardedEngine engine(data.groups, data.hierarchies.get(), ShardOpts(4));
  ServiceOptions sopts;
  sopts.num_threads = 2;
  QueryService service(&engine, sopts);
  QueryResponse resp = service.Run(PairSpec());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(service.metrics().counter("shard_scatters")->Value(), 1u);
  EXPECT_EQ(service.metrics().counter("shard_partials")->Value(), 4u);
  EXPECT_EQ(service.metrics().counter("shard_fallbacks")->Value(), 0u);
  EXPECT_GT(service.metrics().counter("shard_merged_cells")->Value(), 0u);
}

#ifdef SOLAP_FAILPOINTS

// Chaos: every engine-level failpoint armed at low probability against a
// 4-shard engine. OK responses must stay bit-identical to the fault-free
// reference (per-shard degradation must not corrupt the merge); non-OK
// responses must carry an injected code; after DisarmAll the engine
// answers exactly again.
TEST(ShardedEngineChaos, ScatteredQueriesUnderFaultsStayCorrect) {
  SyntheticData data = SmallSynthetic();
  CuboidSpec spec = PairSpec();
  SOlapEngine reference(data.groups, data.hierarchies.get());
  auto expect = reference.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(expect.ok());

  auto arm = [](const char* name, FailpointConfig::Action action,
                StatusCode code, double prob) {
    FailpointConfig c;
    c.action = action;
    c.code = code;
    c.probability = prob;
    c.seed = 20260809u ^ std::hash<std::string>{}(name);
    FailpointRegistry::Global().Arm(name, c);
  };
  using Action = FailpointConfig::Action;
  const double p = 0.05;
  arm("index.build", Action::kReturnError, StatusCode::kInternal, p);
  arm("index.join", Action::kThrowBadAlloc, StatusCode::kInternal, p);
  arm("join.scratch", Action::kReturnError, StatusCode::kResourceExhausted,
      p);
  arm("index.rollup", Action::kReturnError, StatusCode::kInternal, p);
  arm("engine.formation", Action::kReturnError, StatusCode::kInternal, p);
  arm("mem.charge", Action::kReturnError, StatusCode::kResourceExhausted,
      p / 2);

  ShardedEngine engine(data.groups, data.hierarchies.get(), ShardOpts(4));
  const ExecStrategy strategies[] = {ExecStrategy::kCounterBased,
                                     ExecStrategy::kInvertedIndex,
                                     ExecStrategy::kAuto};
  size_t ok_count = 0;
  for (size_t q = 0; q < 120; ++q) {
    auto r = engine.Execute(spec, strategies[q % 3]);
    if (r.ok()) {
      ++ok_count;
      ASSERT_EQ((*r)->num_cells(), (*expect)->num_cells());
      for (const auto& [key, cell] : (*expect)->cells()) {
        ASSERT_EQ((*r)->CellAt(key).count, cell.count);
      }
    } else {
      // Injected faults surface as the injected code or the engine's
      // degradation of it; nothing else is acceptable.
      StatusCode code = r.status().code();
      EXPECT_TRUE(code == StatusCode::kInternal ||
                  code == StatusCode::kResourceExhausted)
          << r.status().ToString();
    }
  }
  EXPECT_GT(ok_count, 0u);

  FailpointRegistry::Global().DisarmAll();
  auto after = engine.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectCuboidsIdentical(**expect, **after, "post-disarm");
}

#endif  // SOLAP_FAILPOINTS

}  // namespace
}  // namespace solap
