// End-to-end engine tests against the paper's worked examples:
//  - query Q3 (Fig. 11/12): 2D S-cuboid with the in/out matching predicate;
//  - query Q1 (Fig. 3): the round-trip (X,Y,Y,X) cuboid;
//  - the §3.4 non-summarizability counter-example;
//  - cell restrictions, aggregates, caches and incremental update.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "paper_fixtures.h"
#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
#include "solap/gen/transit.h"
#include "solap/seq/sequence_query_engine.h"

namespace solap {
namespace {

using testing::Fig8Hierarchies;
using testing::Fig8RawGroups;
using testing::Fig8Table;

// Finds the value of the cell whose per-dimension labels equal `labels`;
// -1 if absent.
double CellByLabels(const SCuboid& c, const std::vector<std::string>& labels) {
  for (const auto& [key, cell] : c.cells()) {
    bool match = key.size() == labels.size();
    for (size_t d = 0; match && d < key.size(); ++d) {
      match = c.LabelOf(d, key[d]) == labels[d];
    }
    if (match) return cell.Value(c.agg());
  }
  return -1.0;
}

ExprPtr InOutPredicate(const std::vector<std::pair<std::string, std::string>>&
                           placeholder_actions) {
  ExprPtr e;
  for (const auto& [ph, action] : placeholder_actions) {
    ExprPtr term = Expr::Eq(Expr::PCol(ph, "action"),
                            Expr::Lit(Value::String(action)));
    e = e ? Expr::And(e, term) : term;
  }
  return e;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : table_(Fig8Table()),
        reg_(Fig8Hierarchies()),
        engine_(table_.get(), reg_.get()) {}

  // Q3 (paper Fig. 11): SUBSTRING(X, Y) at station level with
  // LEFT-MAXIMALITY(x1, y1) WITH x1.action = "in" AND y1.action = "out".
  CuboidSpec Q3() {
    CuboidSpec s;
    s.seq.cluster_by = {{"card-id", "card-id"}};
    s.seq.sequence_by = "time";
    s.symbols = {"X", "Y"};
    s.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
              PatternDim{"Y", {"location", "station"}, {}, ""}};
    s.placeholders = {"x1", "y1"};
    s.predicate = InOutPredicate({{"x1", "in"}, {"y1", "out"}});
    return s;
  }

  // Q1's CUBOID BY part (Fig. 3): SUBSTRING(X, Y, Y, X) with the
  // in/out/in/out matching predicate.
  CuboidSpec Q1() {
    CuboidSpec s = Q3();
    s.symbols = {"X", "Y", "Y", "X"};
    s.placeholders = {"x1", "y1", "y2", "x2"};
    s.predicate = InOutPredicate(
        {{"x1", "in"}, {"y1", "out"}, {"y2", "in"}, {"x2", "out"}});
    return s;
  }

  std::shared_ptr<EventTable> table_;
  std::shared_ptr<HierarchyRegistry> reg_;
  SOlapEngine engine_;
};

TEST_F(EngineTest, Q3ReproducesFigure12WithBothStrategies) {
  for (ExecStrategy strategy :
       {ExecStrategy::kCounterBased, ExecStrategy::kInvertedIndex}) {
    SOlapEngine engine(table_.get(), reg_.get());
    auto r = engine.Execute(Q3(), strategy);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const SCuboid& c = **r;
    EXPECT_EQ(CellByLabels(c, {"Clarendon", "Pentagon"}), 1);
    EXPECT_EQ(CellByLabels(c, {"Deanwood", "Wheaton"}), 1);
    EXPECT_EQ(CellByLabels(c, {"Glenmont", "Pentagon"}), 1);
    EXPECT_EQ(CellByLabels(c, {"Pentagon", "Wheaton"}), 2);
    EXPECT_EQ(CellByLabels(c, {"Wheaton", "Clarendon"}), 1);
    EXPECT_EQ(CellByLabels(c, {"Wheaton", "Pentagon"}), 2);
    // (Pentagon,Pentagon) and (Wheaton,Wheaton) fail the in/out predicate.
    EXPECT_EQ(CellByLabels(c, {"Pentagon", "Pentagon"}), -1);
    EXPECT_EQ(CellByLabels(c, {"Wheaton", "Wheaton"}), -1);
    EXPECT_EQ(c.num_cells(), 6u);
  }
}

TEST_F(EngineTest, Q1RoundTripCuboid) {
  auto r = engine_.Execute(Q1(), ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Both s1 and s2 contain (Pentagon,Wheaton,Wheaton,Pentagon) with valid
  // in/out/in/out actions (Fig. 14's list {s1, s2}). The cuboid is keyed by
  // the two pattern *dimensions* (X, Y) = (Pentagon, Wheaton).
  EXPECT_EQ(CellByLabels(**r, {"Pentagon", "Wheaton"}), 2);
  EXPECT_EQ((*r)->num_cells(), 1u);
}

TEST_F(EngineTest, CounterBasedAndInvertedIndexAgreeOnQ1) {
  auto cb = engine_.Execute(Q1(), ExecStrategy::kCounterBased);
  ASSERT_TRUE(cb.ok());
  SOlapEngine engine2(table_.get(), reg_.get());
  auto ii = engine2.Execute(Q1(), ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(ii.ok());
  EXPECT_EQ((*cb)->num_cells(), (*ii)->num_cells());
  for (const auto& [key, cell] : (*cb)->cells()) {
    EXPECT_EQ((*ii)->CellAt(key).count, cell.count);
  }
}

// §3.4: the DE-TAIL of SUBSTRING(X,Y,Z) on s3 = <P,W,P,W,G> cannot be
// computed by aggregating the finer cuboid (c4 = 1, but c1 + c3 = 2).
TEST_F(EngineTest, NonSummarizabilityCounterExample) {
  auto set = std::make_shared<SequenceGroupSet>("symbol");
  SequenceGroup& g = set->GroupFor({});
  std::vector<Code> s3;
  for (const char* n :
       {"Pentagon", "Wheaton", "Pentagon", "Wheaton", "Glenmont"}) {
    s3.push_back(set->raw_dictionary().GetOrAdd(n));
  }
  g.AddSequence(s3);
  SOlapEngine engine(set, nullptr);

  CuboidSpec xyz;
  xyz.symbols = {"X", "Y", "Z"};
  xyz.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""},
              PatternDim{"Y", {"symbol", "symbol"}, {}, ""},
              PatternDim{"Z", {"symbol", "symbol"}, {}, ""}};
  auto fine = engine.Execute(xyz);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(CellByLabels(**fine, {"Pentagon", "Wheaton", "Pentagon"}), 1);
  EXPECT_EQ(CellByLabels(**fine, {"Wheaton", "Pentagon", "Wheaton"}), 1);
  EXPECT_EQ(CellByLabels(**fine, {"Pentagon", "Wheaton", "Glenmont"}), 1);
  EXPECT_EQ((*fine)->num_cells(), 3u);

  auto detailed = ops::DeTail(xyz);
  ASSERT_TRUE(detailed.ok());
  auto coarse = engine.Execute(*detailed);
  ASSERT_TRUE(coarse.ok());
  // Correct c4 = 1; summing the two finer cells would give the wrong 2.
  EXPECT_EQ(CellByLabels(**coarse, {"Pentagon", "Wheaton"}), 1);
}

TEST_F(EngineTest, CellRestrictionsOnAabaa) {
  // Paper §3.2(5b): pattern (a,a) against <a,a,b,a,a>.
  auto set = std::make_shared<SequenceGroupSet>("symbol");
  SequenceGroup& g = set->GroupFor({});
  Code a = set->raw_dictionary().GetOrAdd("a");
  Code b = set->raw_dictionary().GetOrAdd("b");
  g.AddSequence(std::vector<Code>{a, a, b, a, a});
  SOlapEngine engine(set, nullptr);

  CuboidSpec spec;
  spec.symbols = {"X", "X"};
  spec.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""}};

  spec.restriction = CellRestriction::kLeftMaxMatchedGo;
  auto matched = engine.Execute(spec);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(CellByLabels(**matched, {"a"}), 1);  // first match only

  spec.restriction = CellRestriction::kAllMatchedGo;
  auto all = engine.Execute(spec);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(CellByLabels(**all, {"a"}), 2);  // both occurrences

  spec.restriction = CellRestriction::kLeftMaxDataGo;
  auto data = engine.Execute(spec);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(CellByLabels(**data, {"a"}), 1);  // whole sequence once
  (void)b;
}

TEST_F(EngineTest, SumAggregationOverMatchedAndWholeContent) {
  // SUM(amount) over SUBSTRING(X, Y): matched-go sums the two matched
  // events; data-go sums the whole sequence.
  CuboidSpec spec = Q3();
  spec.agg = AggKind::kSum;
  spec.measure = "amount";
  auto matched = engine_.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  // Card 1012: <Clarendon(in,0), Pentagon(out,-2)>: sum = -2.
  EXPECT_EQ(CellByLabels(**matched, {"Clarendon", "Pentagon"}), -2);

  CuboidSpec whole = spec;
  whole.restriction = CellRestriction::kLeftMaxDataGo;
  auto data = engine_.Execute(whole, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(data.ok());
  // data-go assigns the whole sequence: -2 for the 2-event sequence; for
  // s1 (6 events with 3 "out" at -2 each) a (Glenmont,Pentagon) match
  // sums -6.
  EXPECT_EQ(CellByLabels(**data, {"Clarendon", "Pentagon"}), -2);
  EXPECT_EQ(CellByLabels(**data, {"Glenmont", "Pentagon"}), -6);
}

TEST_F(EngineTest, AvgMinMaxAggregates) {
  CuboidSpec spec = Q3();
  spec.agg = AggKind::kAvg;
  spec.measure = "amount";
  auto avg = engine_.Execute(spec);
  ASSERT_TRUE(avg.ok());
  // (Pentagon, Wheaton): two sequences each contributing -2 -> avg -2.
  EXPECT_EQ(CellByLabels(**avg, {"Pentagon", "Wheaton"}), -2);
  spec.agg = AggKind::kMin;
  auto mn = engine_.Execute(spec);
  ASSERT_TRUE(mn.ok());
  EXPECT_EQ(CellByLabels(**mn, {"Pentagon", "Wheaton"}), -2);
  spec.agg = AggKind::kMax;
  auto mx = engine_.Execute(spec);
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(CellByLabels(**mx, {"Pentagon", "Wheaton"}), -2);
}

TEST_F(EngineTest, MeasureValidation) {
  CuboidSpec no_measure = Q3();
  no_measure.agg = AggKind::kSum;
  EXPECT_FALSE(engine_.Execute(no_measure).ok());
  CuboidSpec bad_measure = Q3();
  bad_measure.agg = AggKind::kSum;
  bad_measure.measure = "location";
  EXPECT_FALSE(engine_.Execute(bad_measure).ok());

  auto raw = Fig8RawGroups();
  SOlapEngine raw_engine(raw, reg_.get());
  CuboidSpec raw_sum;
  raw_sum.symbols = {"X"};
  raw_sum.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""}};
  raw_sum.agg = AggKind::kSum;
  raw_sum.measure = "amount";
  EXPECT_FALSE(raw_engine.Execute(raw_sum).ok());
}

TEST_F(EngineTest, RepositoryServesRepeatedQueries) {
  auto first = engine_.Execute(Q3());
  ASSERT_TRUE(first.ok());
  uint64_t scans_before = engine_.stats().sequences_scanned;
  auto second = engine_.Execute(Q3());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same cached object
  EXPECT_EQ(engine_.stats().sequences_scanned, scans_before);
  EXPECT_EQ(engine_.stats().repository_hits, 1u);
}

TEST_F(EngineTest, GlobalGroupingAndSlices) {
  auto card_h = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"card-id", "fare-group"});
  (void)card_h->SetParent(0, "688", "regular");
  (void)card_h->SetParent(0, "23456", "regular");
  (void)card_h->SetParent(0, "1012", "student");
  (void)card_h->SetParent(0, "77", "student");
  reg_->Register("card-id", card_h);

  CuboidSpec spec = Q3();
  spec.seq.group_by = {{"card-id", "fare-group"}};
  auto r = engine_.Execute(spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 3D cuboid now: (fare-group, X, Y).
  EXPECT_EQ(CellByLabels(**r, {"regular", "Pentagon", "Wheaton"}), 2);
  EXPECT_EQ(CellByLabels(**r, {"student", "Clarendon", "Pentagon"}), 1);
  EXPECT_EQ(CellByLabels(**r, {"regular", "Clarendon", "Pentagon"}), -1);

  auto sliced =
      ops::SliceGlobal(spec, {"card-id", "fare-group"}, {"student"});
  ASSERT_TRUE(sliced.ok());
  auto rs = engine_.Execute(*sliced);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(CellByLabels(**rs, {"student", "Clarendon", "Pentagon"}), 1);
  EXPECT_EQ(CellByLabels(**rs, {"regular", "Pentagon", "Wheaton"}), -1);
}

TEST_F(EngineTest, IcebergFilterDropsLowSupportCells) {
  CuboidSpec spec = Q3();
  spec.iceberg_min_count = 2;
  auto r = engine_.Execute(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_cells(), 2u);  // only the two count-2 cells survive
  EXPECT_EQ(CellByLabels(**r, {"Pentagon", "Wheaton"}), 2);
  EXPECT_EQ(CellByLabels(**r, {"Clarendon", "Pentagon"}), -1);
}

TEST_F(EngineTest, IndexReuseAcrossIterativeQueries) {
  SOlapEngine engine(table_.get(), reg_.get());
  auto q3 = engine.Execute(Q3(), ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(q3.ok());
  uint64_t hits_before = engine.stats().index_cache_hits;
  // APPEND Y: (X, Y, Y) — must reuse the cached L2 as its prefix.
  auto appended = ops::Append(Q3(), "Y");
  ASSERT_TRUE(appended.ok());
  // Predicate placeholders grew; drop the predicate for this test.
  CuboidSpec q_app = *appended;
  q_app.predicate = nullptr;
  q_app.placeholders.clear();
  auto r = engine.Execute(q_app, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(engine.stats().index_cache_hits, hits_before);
  EXPECT_EQ(CellByLabels(**r, {"Pentagon", "Wheaton"}), 2);  // (P,W,W)
}

TEST_F(EngineTest, IncrementalAppendMatchesRebuild) {
  auto raw = Fig8RawGroups();
  SOlapEngine engine(raw, reg_.get());
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""},
               PatternDim{"Y", {"symbol", "symbol"}, {}, ""}};
  auto before = engine.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(before.ok());

  // Append two new sequences; the cached complete L2 extends incrementally.
  Code p = raw->raw_dictionary().Lookup("Pentagon");
  Code w = raw->raw_dictionary().Lookup("Wheaton");
  ASSERT_TRUE(engine.AppendRawSequences(0, {{p, w, p}, {w, w}}).ok());
  auto after = engine.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(after.ok());

  // A fresh engine over the extended data must agree exactly.
  SOlapEngine fresh(raw, reg_.get());
  auto rebuilt = fresh.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ((*after)->num_cells(), (*rebuilt)->num_cells());
  for (const auto& [key, cell] : (*rebuilt)->cells()) {
    EXPECT_EQ((*after)->CellAt(key).count, cell.count);
  }
  // (Pentagon, Wheaton) gained one sequence: 2 + 1 = 3.
  EXPECT_EQ(CellByLabels(**after, {"Pentagon", "Wheaton"}), 3);
}

TEST_F(EngineTest, TableAppendInvalidatesCaches) {
  auto r = engine_.Execute(Q3());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(engine_.repository().size(), 0u);
  (void)table_->AppendRow({Value::Timestamp(MakeTimestamp(2007, 12, 26)),
                           Value::String("688"), Value::String("Wheaton"),
                           Value::String("in"), Value::Double(0)});
  engine_.NotifyTableAppend();
  EXPECT_EQ(engine_.repository().size(), 0u);
  EXPECT_EQ(engine_.IndexCacheBytes(), 0u);
  auto r2 = engine_.Execute(Q3());
  ASSERT_TRUE(r2.ok());
}

TEST_F(EngineTest, CuboidRenderingHasLabels) {
  auto r = engine_.Execute(Q3());
  ASSERT_TRUE(r.ok());
  std::string table = (*r)->ToTable(0);
  EXPECT_NE(table.find("Pentagon"), std::string::npos);
  EXPECT_NE(table.find("COUNT"), std::string::npos);
  auto top = (*r)->TopCells(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].second, 2);
}

// --- Windowed formations and index-cache lifetime -------------------------

void ExpectSameCells(const SCuboid& a, const SCuboid& b,
                     const std::string& what) {
  ASSERT_EQ(a.num_cells(), b.num_cells()) << what;
  for (const auto& [key, cell] : a.cells()) {
    EXPECT_EQ(b.CellAt(key).count, cell.count) << what;
    EXPECT_EQ(b.CellAt(key).sum, cell.sum) << what;
  }
}

class WindowedEngineTest : public ::testing::Test {
 protected:
  WindowedEngineTest() {
    TransitParams p;
    p.num_passengers = 400;
    p.num_days = 4;
    data_ = GenerateTransit(p);
  }

  static SequenceSpec Daily() {
    SequenceSpec s;
    s.cluster_by = {{"card-id", "individual"}, {"time", "day"}};
    s.sequence_by = "time";
    return s;
  }
  // Minutes [from, to) after the data's first midnight.
  static ExprPtr Window(int64_t from, int64_t to) {
    const int64_t t0 = MakeTimestamp(2007, 10, 1);
    return Expr::And(
        Expr::Ge(Expr::Col("time"), Expr::Lit(Value::Timestamp(t0 + from * 60))),
        Expr::Lt(Expr::Col("time"), Expr::Lit(Value::Timestamp(t0 + to * 60))));
  }
  // SUBSTRING (X, Y) at district level, optionally windowed.
  static CuboidSpec Pairs(ExprPtr where) {
    CuboidSpec spec;
    spec.seq = Daily();
    spec.seq.where = std::move(where);
    spec.symbols = {"X", "Y"};
    spec.dims = {PatternDim{"X", {"location", "district"}, {}, ""},
                 PatternDim{"Y", {"location", "district"}, {}, ""}};
    return spec;
  }
  // The same rows selected without a window conjunct: always built.
  static CuboidSpec Oracle(const CuboidSpec& spec) {
    CuboidSpec out = spec;
    out.seq.where = Expr::Not(Expr::Not(spec.seq.where));
    return out;
  }
  static EngineOptions NoRepository(size_t budget = 0) {
    EngineOptions o;
    o.repository_capacity_bytes = 0;
    o.memory_budget_bytes = budget;
    return o;
  }
  const EventTable* table() const { return data_.table.get(); }

  TransitData data_;
};

// A formation the governor refuses is handed back uncached; the indices an
// II query builds on it must go with it, not stay keyed where a later set
// could pick them up.
TEST_F(WindowedEngineTest, IndexCacheOfARefusedFormationIsNotKept) {
  CuboidSpec spec = Pairs(nullptr);
  spec.symbols = {"X"};
  spec.dims.pop_back();
  SequenceQueryEngine sqe(data_.hierarchies.get());
  const size_t set_bytes = (*sqe.Build(*table(), spec.seq))->ApproxBytes();
  SOlapEngine unlimited(table(), data_.hierarchies.get(), NoRepository());
  auto want = unlimited.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const size_t index_bytes = unlimited.IndexCacheBytes();
  ASSERT_GT(index_bytes, 0u);
  ASSERT_LT(index_bytes, set_bytes);  // the index fits where the set does not

  SOlapEngine tight(table(), data_.hierarchies.get(),
                    NoRepository(set_bytes - 1));
  for (int round = 0; round < 3; ++round) {
    ScanStats stats;
    ExecControl control;
    control.stats_out = &stats;
    auto got = tight.Execute(spec, ExecStrategy::kInvertedIndex, control);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(stats.degraded_queries, 0u);
    EXPECT_GT(stats.lists_built, 0u) << "round " << round;
    ExpectSameCells(**want, **got, "round " + std::to_string(round));
    EXPECT_EQ(tight.IndexCacheBytes(), 0u) << "round " << round;
    EXPECT_EQ(tight.governor().used(), 0u) << "round " << round;
  }
}

// Day windows each hold about a quarter of the base, so the fourth one
// evicts the least recently used: every query of the cycle re-derives an
// evicted window. Answers stay identical, and the cached indices do not
// pile up with the evicted sets.
TEST_F(WindowedEngineTest, EvictedWindowsRequeryBitIdentically) {
  SOlapEngine engine(table(), data_.hierarchies.get(), NoRepository());
  SOlapEngine fresh(table(), data_.hierarchies.get(), NoRepository());
  std::vector<CuboidSpec> days;
  std::vector<std::shared_ptr<const SCuboid>> want;
  for (int d = 0; d < 4; ++d) {
    days.push_back(Pairs(Window(d * 1440, (d + 1) * 1440)));
    auto r = fresh.Execute(Oracle(days.back()), ExecStrategy::kInvertedIndex);
    ASSERT_TRUE(r.ok());
    want.push_back(*r);
  }
  size_t steady_bytes = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int d = 0; d < 4; ++d) {
      ScanStats stats;
      ExecControl control;
      control.stats_out = &stats;
      auto got =
          engine.Execute(days[d], ExecStrategy::kInvertedIndex, control);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string what =
          "cycle " + std::to_string(cycle) + " day " + std::to_string(d);
      ExpectSameCells(*want[d], **got, what);
      EXPECT_EQ(stats.formations_derived, 1u) << what;
    }
    if (cycle == 0) steady_bytes = engine.IndexCacheBytes();
    EXPECT_GT(steady_bytes, 0u);
    EXPECT_EQ(engine.IndexCacheBytes(), steady_bytes) << "cycle " << cycle;
  }
}

// Several clients query distinct windows of one base at once while the
// bound and a tight budget keep evicting derived sets under them.
TEST_F(WindowedEngineTest, ConcurrentWindowsShareOneBaseWhileEvicting) {
  constexpr int kThreads = 4;
  constexpr int kWindows = 10;
  SequenceQueryEngine sqe(data_.hierarchies.get());
  const size_t base_bytes = (*sqe.Build(*table(), Daily()))->ApproxBytes();
  SOlapEngine fresh(table(), data_.hierarchies.get(), NoRepository());
  std::vector<std::vector<CuboidSpec>> specs(kThreads);
  std::vector<std::vector<std::shared_ptr<const SCuboid>>> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int w = 0; w < kWindows; ++w) {
      const int64_t from = (t * kWindows + w) * 97;
      specs[t].push_back(Pairs(Window(from, from + 1440 + 60 * w)));
      auto r = fresh.Execute(Oracle(specs[t].back()),
                             ExecStrategy::kCounterBased);
      ASSERT_TRUE(r.ok());
      want[t].push_back(*r);
    }
  }

  SOlapEngine engine(table(), data_.hierarchies.get(),
                     NoRepository(3 * base_bytes));
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        for (int w = 0; w < kWindows; ++w) {
          const ExecStrategy strategy = (w + round) % 2 == 0
                                            ? ExecStrategy::kCounterBased
                                            : ExecStrategy::kInvertedIndex;
          auto got = engine.Execute(specs[t][w], strategy);
          if (!got.ok()) {
            ADD_FAILURE() << got.status().ToString();
            return;
          }
          ExpectSameCells(*want[t][w], **got,
                          "client " + std::to_string(t) + " window " +
                              std::to_string(w));
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_GT(engine.StatsSnapshot().formations_derived,
            static_cast<uint64_t>(kThreads * kWindows));
}

}  // namespace
}  // namespace solap
