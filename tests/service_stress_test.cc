// Concurrency stress tests: many threads running a mixed CB/II batch
// (including repeated specs) must produce bit-identical cuboids and —
// for CB-only batches — identical engine stat totals to a sequential
// single-threaded run. These are the tests tools/check.sh runs under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "solap/engine/operations.h"
#include "solap/gen/synthetic.h"
#include "solap/service/query_service.h"

namespace solap {
namespace {

CuboidSpec XYSpec() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

// COUNT cuboids as ordered (key -> count) maps: integer counts make the
// comparison exact, and the ordering makes mismatches readable.
std::map<CellKey, int64_t> CountMap(const SCuboid& c) {
  std::map<CellKey, int64_t> out;
  for (const auto& [key, cell] : c.cells()) out[key] = cell.count;
  return out;
}

struct Query {
  CuboidSpec spec;
  ExecStrategy strategy;
};

class ServiceStressTest : public ::testing::Test {
 protected:
  ServiceStressTest() : data_(GenerateSynthetic(Params())) {}

  static SyntheticParams Params() {
    SyntheticParams p;
    p.num_sequences = 5000;  // big enough to overlap, small enough for TSan
    p.num_symbols = 30;
    return p;
  }

  // ~50 queries: `distinct` specs sliced to the heaviest base cells,
  // alternating CB/II, each submitted `repeat` times back to back.
  std::vector<Query> MixedBatch(size_t distinct, size_t repeat,
                                bool cb_only = false) {
    SOlapEngine scout(data_.groups, data_.hierarchies.get());
    auto base = scout.Execute(XYSpec(), ExecStrategy::kCounterBased);
    EXPECT_TRUE(base.ok());
    auto cells = (*base)->TopCells(distinct);
    EXPECT_GE(cells.size(), distinct);

    std::vector<Query> batch;
    for (size_t q = 0; q < distinct; ++q) {
      auto sliced = ops::SliceToCell(XYSpec(), **base, cells[q].first);
      EXPECT_TRUE(sliced.ok()) << sliced.status().ToString();
      ExecStrategy strategy =
          (cb_only || q % 2 == 0) ? ExecStrategy::kCounterBased
                                  : ExecStrategy::kInvertedIndex;
      for (size_t r = 0; r < repeat; ++r) {
        batch.push_back({*sliced, strategy});
      }
    }
    return batch;
  }

  // Sequential ground truth on a fresh engine.
  std::vector<std::map<CellKey, int64_t>> SequentialBaseline(
      const std::vector<Query>& batch) {
    SOlapEngine engine(data_.groups, data_.hierarchies.get());
    std::vector<std::map<CellKey, int64_t>> out;
    for (const Query& q : batch) {
      auto r = engine.Execute(q.spec, q.strategy);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(CountMap(**r));
    }
    return out;
  }

  SyntheticData data_;
};

TEST_F(ServiceStressTest, EightThreadsMatchSequentialBitForBit) {
  std::vector<Query> batch = MixedBatch(/*distinct=*/25, /*repeat=*/2);
  ASSERT_EQ(batch.size(), 50u);
  std::vector<std::map<CellKey, int64_t>> expected =
      SequentialBaseline(batch);

  SOlapEngine engine(data_.groups, data_.hierarchies.get());
  ServiceOptions opts;
  opts.num_threads = 8;
  opts.max_queue_depth = batch.size() + 8;
  QueryService service(&engine, opts);

  std::vector<QueryService::Ticket> tickets;
  for (const Query& q : batch) {
    SubmitOptions so;
    so.strategy = q.strategy;
    tickets.push_back(service.Submit(q.spec, so));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    QueryResponse resp = tickets[i].response.get();
    ASSERT_TRUE(resp.status.ok())
        << "query " << i << ": " << resp.status.ToString();
    ASSERT_NE(resp.cuboid, nullptr);
    EXPECT_EQ(CountMap(*resp.cuboid), expected[i]) << "query " << i;
  }
  EXPECT_EQ(service.metrics().counter("queries_ok")->Value(), batch.size());
  EXPECT_EQ(service.PendingQueries(), 0u);
}

// Satellite regression for the ScanStats aggregation race: the engine
// totals after a concurrent run must equal the single-threaded totals for
// the same batch. CB-only with distinct specs keeps every per-query count
// schedule-independent (II lists_built varies with which duplicate builds
// a shared index first).
TEST_F(ServiceStressTest, StatTotalsIdenticalAcrossThreadCounts) {
  std::vector<Query> batch =
      MixedBatch(/*distinct=*/20, /*repeat=*/1, /*cb_only=*/true);

  auto totals_at = [&](size_t threads) {
    SOlapEngine engine(data_.groups, data_.hierarchies.get());
    ServiceOptions opts;
    opts.num_threads = threads;
    opts.max_queue_depth = batch.size() + threads;
    QueryService service(&engine, opts);
    std::vector<QueryService::Ticket> tickets;
    for (const Query& q : batch) {
      SubmitOptions so;
      so.strategy = q.strategy;
      tickets.push_back(service.Submit(q.spec, so));
    }
    for (auto& t : tickets) {
      EXPECT_TRUE(t.response.get().status.ok());
    }
    return engine.StatsSnapshot();
  };

  ScanStats one = totals_at(1);
  ScanStats eight = totals_at(8);
  EXPECT_EQ(one.sequences_scanned, eight.sequences_scanned);
  EXPECT_EQ(one.lists_built, eight.lists_built);
  EXPECT_EQ(one.list_intersections, eight.list_intersections);
  EXPECT_EQ(one.index_bytes_built, eight.index_bytes_built);
  EXPECT_EQ(one.repository_hits, eight.repository_hits);
  EXPECT_EQ(one.index_cache_hits, eight.index_cache_hits);
}

// Single-flight: N concurrent submissions of one spec execute it once;
// the duplicates land on the repository, sequential-style (1 miss +
// N-1 hits) no matter how the scheduler interleaves them.
TEST_F(ServiceStressTest, SingleFlightDedupesConcurrentDuplicates) {
  constexpr size_t kDuplicates = 16;
  SOlapEngine engine(data_.groups, data_.hierarchies.get());
  ServiceOptions opts;
  opts.num_threads = 8;
  opts.max_queue_depth = kDuplicates + 8;
  QueryService service(&engine, opts);

  std::vector<QueryService::Ticket> tickets;
  SubmitOptions cb;
  cb.strategy = ExecStrategy::kCounterBased;
  for (size_t i = 0; i < kDuplicates; ++i) {
    tickets.push_back(service.Submit(XYSpec(), cb));
  }
  for (auto& t : tickets) {
    ASSERT_TRUE(t.response.get().status.ok());
  }
  EXPECT_EQ(service.metrics().counter("repository_hits")->Value(),
            kDuplicates - 1);
  ScanStats totals = engine.StatsSnapshot();
  // One real execution's worth of scanning: 5000 sequences, once.
  EXPECT_EQ(totals.sequences_scanned, 5000u);
}

}  // namespace
}  // namespace solap
