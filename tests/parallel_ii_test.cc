// Inverted-index execution must agree exactly with the counter-based scan,
// and queries running concurrently on one engine must not race. These tests
// pin CB-vs-II agreement across the container kernels and concurrent II
// queries sharing one group's index cache (run under TSan by
// tools/check.sh).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "solap/engine/engine.h"
#include "solap/gen/synthetic.h"

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

TEST(ParallelII, KernelPoliciesAgree) {
  SyntheticParams p;
  p.num_sequences = 10000;
  p.num_symbols = 5;  // few symbols: pair lists dense enough for bitmaps
  p.mean_length = 12;
  p.theta = 1.2;      // skewed frequencies: sparse array and run lists too
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec = TripleSpec();

  SOlapEngine cb(data.groups, data.hierarchies.get());
  SOlapEngine ii(data.groups, data.hierarchies.get());
  auto r0 = cb.Execute(spec, ExecStrategy::kCounterBased);
  auto r1 = ii.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(r0.ok() && r1.ok());
  ExpectCuboidsIdentical(**r0, **r1, "CB vs II");
  // The joins met array, bitmap and run containers, so the agreement
  // covers more than one row of the container dispatch table.
  const ScanStats& st = ii.stats();
  EXPECT_GT(st.container_array_ops, 0u);
  EXPECT_GT(st.container_bitmap_ops, 0u);
  EXPECT_GT(st.container_run_ops, 0u);
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
