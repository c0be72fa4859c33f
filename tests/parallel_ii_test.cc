// Parallel inverted-index execution must be bit-identical to serial
// execution: the join/merge partitions shard disjoint key ranges and merge
// in a deterministic order, so even floating-point SUM state matches
// exactly (ISSUE: "II execution" in DESIGN.md). These tests pin that
// contract for plain joins, kernel policies, P-ROLL-UP merges and the
// pool-backed CB scan.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
#include "solap/gen/synthetic.h"
#include "solap/gen/transit.h"

namespace solap {
namespace {

// Exact comparison of the full aggregate state of every cell — not just
// counts: bit-identical means the double-valued SUM/MIN/MAX state agrees
// to the last ulp.
void ExpectCuboidsIdentical(const SCuboid& a, const SCuboid& b,
                            const char* what) {
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

CuboidSpec TripleSpec() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y", "Z"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Z", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

EngineOptions ParallelOpts() {
  EngineOptions o;
  o.default_strategy = ExecStrategy::kInvertedIndex;
  o.exec_threads = 4;
  o.parallel_min_lists = 1;  // force the sharded path even on tiny joins
  o.parallel_min_work = 1;   // ... and past the work-size cutoff too
  return o;
}

TEST(ParallelII, JoinsIdenticalToSerial) {
  SyntheticParams p;
  p.num_sequences = 2000;
  p.num_symbols = 25;
  p.mean_length = 10;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec = TripleSpec();

  SOlapEngine serial(data.groups, data.hierarchies.get());
  SOlapEngine parallel(data.groups, data.hierarchies.get(), ParallelOpts());
  auto a = serial.Execute(spec, ExecStrategy::kInvertedIndex);
  auto b = parallel.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectCuboidsIdentical(**a, **b, "parallel join");
  // Same work was done, just partitioned.
  EXPECT_EQ(serial.stats().list_intersections,
            parallel.stats().list_intersections);
  EXPECT_EQ(serial.stats().sequences_scanned,
            parallel.stats().sequences_scanned);
}

TEST(ParallelII, KernelPoliciesAgree) {
  SyntheticParams p;
  p.num_sequences = 1500;
  p.num_symbols = 12;  // dense lists: triggers the bitmap density heuristic
  p.mean_length = 12;
  p.theta = 1.2;       // skewed symbol frequencies: triggers galloping
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec = TripleSpec();

  EngineOptions scalar;
  scalar.adaptive_join_kernels = false;
  EngineOptions adaptive;  // defaults: adaptive on, serial
  EngineOptions adaptive_parallel = ParallelOpts();
  EngineOptions bitmap_forced;
  bitmap_forced.bitmap_join_threshold = 8;

  SOlapEngine e0(data.groups, data.hierarchies.get(), scalar);
  SOlapEngine e1(data.groups, data.hierarchies.get(), adaptive);
  SOlapEngine e2(data.groups, data.hierarchies.get(), adaptive_parallel);
  SOlapEngine e3(data.groups, data.hierarchies.get(), bitmap_forced);
  auto r0 = e0.Execute(spec, ExecStrategy::kInvertedIndex);
  auto r1 = e1.Execute(spec, ExecStrategy::kInvertedIndex);
  auto r2 = e2.Execute(spec, ExecStrategy::kInvertedIndex);
  auto r3 = e3.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok() && r3.ok());
  ExpectCuboidsIdentical(**r0, **r1, "scalar vs adaptive");
  ExpectCuboidsIdentical(**r0, **r2, "scalar vs adaptive parallel");
  ExpectCuboidsIdentical(**r0, **r3, "scalar vs forced bitmap");
}

TEST(ParallelII, RollUpMergeIdenticalToSerial) {
  SyntheticParams p;
  p.num_sequences = 1200;
  p.num_symbols = 30;
  p.mean_length = 9;
  SyntheticData data = GenerateSynthetic(p);

  CuboidSpec fine;
  fine.symbols = {"X", "Y"};
  fine.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  CuboidSpec coarse = fine;
  coarse.dims[0].ref = {SyntheticData::kAttr, "group"};
  coarse.dims[1].ref = {SyntheticData::kAttr, "group"};

  SOlapEngine serial(data.groups, data.hierarchies.get());
  SOlapEngine parallel(data.groups, data.hierarchies.get(), ParallelOpts());
  // Warm each engine with the fine-level index, then roll up: the coarse
  // query derives its index via RollUpMerge (serial vs pool-backed).
  for (SOlapEngine* e : {&serial, &parallel}) {
    auto warm = e->Execute(fine, ExecStrategy::kInvertedIndex);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  auto a = serial.Execute(coarse, ExecStrategy::kInvertedIndex);
  auto b = parallel.Execute(coarse, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectCuboidsIdentical(**a, **b, "parallel roll-up");
}

TEST(ParallelII, PoolBackedCounterScanIdentical) {
  TransitParams tp;
  tp.num_passengers = 3000;
  tp.num_days = 1;
  TransitData transit = GenerateTransit(tp);
  CuboidSpec spec;
  spec.agg = AggKind::kSum;
  spec.measure = "amount";
  spec.seq.cluster_by = {{"card-id", "individual"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  EngineOptions pooled;
  pooled.exec_threads = 4;
  pooled.cb_threads = 0;  // auto: use the whole compute pool
  SOlapEngine serial(transit.table.get(), transit.hierarchies.get());
  SOlapEngine parallel(transit.table.get(), transit.hierarchies.get(),
                       pooled);
  auto a = serial.Execute(spec, ExecStrategy::kCounterBased);
  auto b = parallel.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(a.ok() && b.ok());
  // Counts and the per-cell membership must match; SUM order within a cell
  // can differ across partitions, so compare counts exactly and sums to
  // double precision.
  ASSERT_EQ((*a)->num_cells(), (*b)->num_cells());
  for (const auto& [key, cell] : (*a)->cells()) {
    CellValue other = (*b)->CellAt(key);
    EXPECT_EQ(cell.count, other.count);
    EXPECT_NEAR(cell.sum, other.sum, 1e-6 * (1.0 + std::fabs(cell.sum)));
  }
}

// Concurrent II queries over the one synthetic sequence group share one
// GroupIndexCache: while one query inserts an index, others look the cache
// up. A lookup must not write to the cache (TSan, tools/check.sh), and
// every answer must match a serial engine's.
TEST(ParallelII, ConcurrentQueriesShareOneGroupIndexCache) {
  SyntheticParams p;
  p.num_sequences = 1500;
  p.num_symbols = 20;
  p.mean_length = 8;
  SyntheticData data = GenerateSynthetic(p);
  // Every pair of hierarchy levels is its own index shape, so each query
  // builds and inserts indices instead of hitting another query's.
  const char* levels[] = {SyntheticData::kLevelBase,
                          SyntheticData::kLevelGroup,
                          SyntheticData::kLevelSuper};
  std::vector<CuboidSpec> specs;
  for (const char* x : levels) {
    for (const char* y : levels) {
      CuboidSpec spec;
      spec.symbols = {"X", "Y"};
      spec.dims = {PatternDim{"X", {SyntheticData::kAttr, x}, {}, ""},
                   PatternDim{"Y", {SyntheticData::kAttr, y}, {}, ""}};
      specs.push_back(spec);
      spec.symbols = {"X", "Y", "X"};
      specs.push_back(std::move(spec));
    }
  }

  SOlapEngine serial(data.groups, data.hierarchies.get());
  std::vector<std::shared_ptr<const SCuboid>> expect;
  for (const CuboidSpec& spec : specs) {
    auto r = serial.Execute(spec, ExecStrategy::kInvertedIndex);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expect.push_back(*r);
  }

  EngineOptions opts;
  opts.repository_capacity_bytes = 0;  // every query reaches the index cache
  SOlapEngine shared(data.groups, data.hierarchies.get(), opts);
  constexpr size_t kClients = 4;
  std::vector<std::vector<Result<std::shared_ptr<const SCuboid>>>> got(
      kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks the specs from its own offset, so builds of one
      // shape overlap lookups of others.
      for (size_t i = 0; i < specs.size(); ++i) {
        got[c].push_back(shared.Execute(specs[(c * 5 + i) % specs.size()],
                                        ExecStrategy::kInvertedIndex));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < specs.size(); ++i) {
      const auto& r = got[c][i];
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectCuboidsIdentical(*expect[(c * 5 + i) % specs.size()], **r,
                             "concurrent II query");
    }
  }
}

}  // namespace
}  // namespace solap
