// Property-based tests over randomized synthetic data (parameterized gtest
// sweeps). The central invariant is the paper's implicit correctness claim:
// the counter-based and inverted-index strategies compute the SAME S-cuboid
// for every specification. Further invariants: index derivation paths
// (roll-up merge, drill-down refine, prefix/suffix joins) agree with direct
// computation, incremental update equals rebuild, and the subsequence
// matcher agrees with a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>

#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
#include "solap/engine/sharded_engine.h"
#include "solap/hierarchy/concept_hierarchy.h"
#include "solap/seq/sequence_query_engine.h"
#include "solap/gen/synthetic.h"
#include "solap/gen/transit.h"

namespace solap {
namespace {

struct Scenario {
  const char* name;
  PatternKind kind;
  std::vector<std::string> symbols;
  std::vector<std::string> levels;  // per distinct symbol, in first-seen order
  CellRestriction restriction;
  double theta;
};

std::ostream& operator<<(std::ostream& os, const Scenario& s) {
  return os << s.name;
}

CuboidSpec SpecFor(const Scenario& sc, const SyntheticData& data) {
  CuboidSpec spec;
  spec.kind = sc.kind;
  spec.symbols = sc.symbols;
  spec.restriction = sc.restriction;
  std::vector<std::string> seen;
  for (const std::string& sym : sc.symbols) {
    if (std::find(seen.begin(), seen.end(), sym) != seen.end()) continue;
    spec.dims.push_back(PatternDim{
        sym, {SyntheticData::kAttr, sc.levels[seen.size()]}, {}, ""});
    seen.push_back(sym);
  }
  (void)data;
  return spec;
}

void ExpectCuboidsEqual(const SCuboid& a, const SCuboid& b,
                        const char* what) {
  EXPECT_EQ(a.num_cells(), b.num_cells()) << what;
  for (const auto& [key, cell] : a.cells()) {
    EXPECT_EQ(b.CellAt(key).count, cell.count) << what;
  }
}

class StrategyEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(StrategyEquivalence, CounterBasedEqualsInvertedIndex) {
  const Scenario& sc = GetParam();
  SyntheticParams p;
  p.num_sequences = 400;
  p.num_symbols = 20;
  p.mean_length = 8;
  p.theta = sc.theta;
  p.num_groups = 5;
  p.num_supergroups = 2;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec = SpecFor(sc, data);

  SOlapEngine cb_engine(data.groups, data.hierarchies.get());
  SOlapEngine ii_engine(data.groups, data.hierarchies.get());
  auto cb = cb_engine.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  auto ii = ii_engine.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(ii.ok()) << ii.status().ToString();
  ExpectCuboidsEqual(**cb, **ii, sc.name);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, StrategyEquivalence,
    ::testing::Values(
        Scenario{"xy_base", PatternKind::kSubstring, {"X", "Y"},
                 {"symbol", "symbol"}, CellRestriction::kLeftMaxMatchedGo,
                 0.9},
        Scenario{"xx_repeated", PatternKind::kSubstring, {"X", "X"},
                 {"symbol"}, CellRestriction::kLeftMaxMatchedGo, 0.9},
        Scenario{"xyz_triple", PatternKind::kSubstring, {"X", "Y", "Z"},
                 {"symbol", "symbol", "symbol"},
                 CellRestriction::kLeftMaxMatchedGo, 0.9},
        Scenario{"xyyx_roundtrip", PatternKind::kSubstring,
                 {"X", "Y", "Y", "X"}, {"symbol", "symbol"},
                 CellRestriction::kLeftMaxMatchedGo, 0.9},
        Scenario{"xy_group_level", PatternKind::kSubstring, {"X", "Y"},
                 {"group", "group"}, CellRestriction::kLeftMaxMatchedGo,
                 0.9},
        Scenario{"xy_mixed_levels", PatternKind::kSubstring, {"X", "Y"},
                 {"symbol", "supergroup"},
                 CellRestriction::kLeftMaxMatchedGo, 0.9},
        Scenario{"xy_all_matched", PatternKind::kSubstring, {"X", "Y"},
                 {"symbol", "symbol"}, CellRestriction::kAllMatchedGo, 0.9},
        Scenario{"xy_data_go", PatternKind::kSubstring, {"X", "Y"},
                 {"symbol", "symbol"}, CellRestriction::kLeftMaxDataGo,
                 0.9},
        Scenario{"xy_flat_skew", PatternKind::kSubstring, {"X", "Y"},
                 {"symbol", "symbol"}, CellRestriction::kLeftMaxMatchedGo,
                 0.5},
        Scenario{"xy_heavy_skew", PatternKind::kSubstring, {"X", "Y"},
                 {"symbol", "symbol"}, CellRestriction::kLeftMaxMatchedGo,
                 1.2},
        Scenario{"subseq_xy", PatternKind::kSubsequence, {"X", "Y"},
                 {"symbol", "symbol"}, CellRestriction::kLeftMaxMatchedGo,
                 0.9},
        Scenario{"subseq_xx", PatternKind::kSubsequence, {"X", "X"},
                 {"symbol"}, CellRestriction::kAllMatchedGo, 0.9}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

class SlicedEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(SlicedEquivalence, SliceAppendFlowAgreesAcrossStrategies) {
  const Scenario& sc = GetParam();
  SyntheticParams p;
  p.num_sequences = 300;
  p.num_symbols = 15;
  p.mean_length = 8;
  p.theta = sc.theta;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec = SpecFor(sc, data);

  SOlapEngine engine(data.groups, data.hierarchies.get());
  auto first = engine.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  CellKey top = (*first)->ArgMaxCell();
  ASSERT_FALSE(top.empty());
  auto sliced = ops::SliceToCell(spec, **first, top);
  ASSERT_TRUE(sliced.ok());
  auto appended =
      ops::Append(*sliced, "W", {SyntheticData::kAttr, "symbol"});
  ASSERT_TRUE(appended.ok());

  auto ii = engine.Execute(*appended, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(ii.ok()) << ii.status().ToString();
  SOlapEngine cb_engine(data.groups, data.hierarchies.get());
  auto cb = cb_engine.Execute(*appended, ExecStrategy::kCounterBased);
  ASSERT_TRUE(cb.ok());
  ExpectCuboidsEqual(**cb, **ii, sc.name);
}

INSTANTIATE_TEST_SUITE_P(
    SliceScenarios, SlicedEquivalence,
    ::testing::Values(
        Scenario{"slice_xy", PatternKind::kSubstring, {"X", "Y"},
                 {"symbol", "symbol"}, CellRestriction::kLeftMaxMatchedGo,
                 0.9},
        Scenario{"slice_xyyx", PatternKind::kSubstring, {"X", "Y", "Y", "X"},
                 {"symbol", "symbol"}, CellRestriction::kLeftMaxMatchedGo,
                 0.9},
        Scenario{"slice_group", PatternKind::kSubstring, {"X", "Y"},
                 {"group", "group"}, CellRestriction::kLeftMaxMatchedGo,
                 0.9}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// P-ROLL-UP and P-DRILL-DOWN answered through index derivation must equal
// direct counter-based computation at the target level.
TEST(DerivationProperty, RollUpThenDrillDownAgreesWithDirect) {
  SyntheticParams p;
  p.num_sequences = 400;
  p.num_symbols = 20;
  p.mean_length = 8;
  p.num_groups = 5;
  p.num_supergroups = 2;
  SyntheticData data = GenerateSynthetic(p);

  CuboidSpec fine;
  fine.symbols = {"X", "Y"};
  fine.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};

  SOlapEngine engine(data.groups, data.hierarchies.get());
  auto base = engine.Execute(fine, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(base.ok());

  // Roll Y up to group level: served by merging the cached L2.
  auto up = ops::PRollUp(fine, "Y", *data.hierarchies);
  ASSERT_TRUE(up.ok());
  uint64_t scans_before = engine.stats().sequences_scanned;
  auto rolled = engine.Execute(*up, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(rolled.ok());
  // Merging lists requires no data-sequence scan at all.
  EXPECT_EQ(engine.stats().sequences_scanned, scans_before);

  SOlapEngine direct(data.groups, data.hierarchies.get());
  auto expect = direct.Execute(*up, ExecStrategy::kCounterBased);
  ASSERT_TRUE(expect.ok());
  ExpectCuboidsEqual(**expect, **rolled, "rollup");

  // Drill back down on a fresh engine that only has the coarse index.
  SOlapEngine engine2(data.groups, data.hierarchies.get());
  auto coarse = engine2.Execute(*up, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(coarse.ok());
  auto drilled = engine2.Execute(fine, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(drilled.ok());
  ExpectCuboidsEqual(**base, **drilled, "drilldown");
}

TEST(IncrementalProperty, RepeatedBatchesMatchRebuild) {
  SyntheticParams p;
  p.num_sequences = 200;
  p.num_symbols = 12;
  p.mean_length = 6;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};

  SOlapEngine engine(data.groups, data.hierarchies.get());
  ASSERT_TRUE(engine.Execute(spec, ExecStrategy::kInvertedIndex).ok());
  for (uint64_t batch = 0; batch < 3; ++batch) {
    auto delta = GenerateSyntheticBatch(p, 50, 1000 + batch);
    const uint64_t patches = engine.stats().cuboid_patches;
    ASSERT_TRUE(engine.AppendRawSequences(0, delta).ok());
    // The cached COUNT cuboid was patched in place, so the repeat query is
    // a repository hit on the patched answer.
    EXPECT_EQ(engine.stats().cuboid_patches, patches + 1);
    const uint64_t hits = engine.stats().repository_hits;
    auto incremental = engine.Execute(spec, ExecStrategy::kInvertedIndex);
    ASSERT_TRUE(incremental.ok());
    EXPECT_EQ(engine.stats().repository_hits, hits + 1);
    SOlapEngine fresh(data.groups, data.hierarchies.get());
    auto rebuilt = fresh.Execute(spec, ExecStrategy::kCounterBased);
    ASSERT_TRUE(rebuilt.ok());
    ExpectCuboidsEqual(**rebuilt, **incremental, "incremental");
  }
}

// SUM aggregation must agree across strategies on table-backed data, for
// every cell restriction.
TEST(AggregateProperty, SumAgreesAcrossStrategiesAndRestrictions) {
  TransitParams p;
  p.num_passengers = 150;
  p.num_days = 2;
  TransitData data = GenerateTransit(p);
  for (CellRestriction restriction :
       {CellRestriction::kLeftMaxMatchedGo, CellRestriction::kLeftMaxDataGo,
        CellRestriction::kAllMatchedGo}) {
    CuboidSpec spec;
    spec.agg = AggKind::kSum;
    spec.measure = "amount";
    spec.restriction = restriction;
    spec.seq.cluster_by = {{"card-id", "individual"}, {"time", "day"}};
    spec.seq.sequence_by = "time";
    spec.symbols = {"X", "Y"};
    spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
                 PatternDim{"Y", {"location", "station"}, {}, ""}};
    SOlapEngine cb(data.table.get(), data.hierarchies.get());
    SOlapEngine ii(data.table.get(), data.hierarchies.get());
    auto r1 = cb.Execute(spec, ExecStrategy::kCounterBased);
    auto r2 = ii.Execute(spec, ExecStrategy::kInvertedIndex);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_EQ((*r1)->num_cells(), (*r2)->num_cells());
    for (const auto& [key, cell] : (*r1)->cells()) {
      CellValue other = (*r2)->CellAt(key);
      EXPECT_EQ(other.count, cell.count);
      EXPECT_NEAR(other.sum, cell.sum, 1e-9);
    }
  }
}

// PREPEND grows the template leftward: the suffix-extension path of the
// index engine must agree with CB.
TEST(PrependProperty, SuffixGrowthAgreesWithCounterBased) {
  SyntheticParams p;
  p.num_sequences = 300;
  p.num_symbols = 15;
  p.mean_length = 8;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  SOlapEngine engine(data.groups, data.hierarchies.get());
  auto first = engine.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(first.ok());
  // Slice, then PREPEND — the cached (X, Y) index is a usable suffix.
  auto sliced = ops::SliceToCell(spec, **first, (*first)->ArgMaxCell());
  ASSERT_TRUE(sliced.ok());
  auto prepended =
      ops::Prepend(*sliced, "W", {SyntheticData::kAttr, "symbol"});
  ASSERT_TRUE(prepended.ok());
  auto ii = engine.Execute(*prepended, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(ii.ok()) << ii.status().ToString();
  SOlapEngine cb_engine(data.groups, data.hierarchies.get());
  auto cb = cb_engine.Execute(*prepended, ExecStrategy::kCounterBased);
  ASSERT_TRUE(cb.ok());
  ExpectCuboidsEqual(**cb, **ii, "prepend");
}

// A regex with plain concatenation must agree exactly with the equivalent
// substring template, cell by cell, on random data.
TEST(RegexProperty, ConcatenationMatchesSubstringTemplates) {
  SyntheticParams p;
  p.num_sequences = 300;
  p.num_symbols = 12;
  p.mean_length = 8;
  SyntheticData data = GenerateSynthetic(p);
  struct Case {
    const char* regex;
    std::vector<std::string> symbols;
  };
  for (const Case& c : {Case{"X Y", {"X", "Y"}}, Case{"X X", {"X", "X"}},
                        Case{"X Y X", {"X", "Y", "X"}}}) {
    CuboidSpec rspec;
    rspec.regex = c.regex;
    CuboidSpec tspec;
    tspec.symbols = c.symbols;
    std::vector<std::string> seen;
    for (const std::string& sym : c.symbols) {
      if (std::find(seen.begin(), seen.end(), sym) != seen.end()) continue;
      PatternDim d{sym, {SyntheticData::kAttr, "symbol"}, {}, ""};
      rspec.dims.push_back(d);
      tspec.dims.push_back(d);
      seen.push_back(sym);
    }
    SOlapEngine engine(data.groups, data.hierarchies.get());
    auto rr = engine.Execute(rspec);
    auto rt = engine.Execute(tspec, ExecStrategy::kCounterBased);
    ASSERT_TRUE(rr.ok() && rt.ok()) << c.regex;
    ExpectCuboidsEqual(**rt, **rr, c.regex);
  }
}

// Dice (multi-label restriction) behaves as the union of its slices.
TEST(DiceProperty, DiceEqualsUnionOfSlices) {
  SyntheticParams p;
  p.num_sequences = 300;
  p.num_symbols = 12;
  p.mean_length = 8;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  SOlapEngine engine(data.groups, data.hierarchies.get());
  auto diced = ops::SlicePattern(spec, "X", {"e0", "e1"});
  ASSERT_TRUE(diced.ok());
  auto rd = engine.Execute(*diced, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(rd.ok());
  auto s0 = engine.Execute(*ops::SlicePattern(spec, "X", {"e0"}));
  auto s1 = engine.Execute(*ops::SlicePattern(spec, "X", {"e1"}));
  ASSERT_TRUE(s0.ok() && s1.ok());
  EXPECT_EQ((*rd)->num_cells(), (*s0)->num_cells() + (*s1)->num_cells());
  for (const auto& [key, cell] : (*s0)->cells()) {
    EXPECT_EQ((*rd)->CellAt(key).count, cell.count);
  }
  for (const auto& [key, cell] : (*s1)->cells()) {
    EXPECT_EQ((*rd)->CellAt(key).count, cell.count);
  }
}

// The AUTO strategy must be invisible in results across a whole session.
TEST(AutoProperty, AutoSessionMatchesCounterBased) {
  SyntheticParams p;
  p.num_sequences = 300;
  p.num_symbols = 12;
  p.mean_length = 8;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  SOlapEngine auto_engine(data.groups, data.hierarchies.get());
  SOlapEngine cb_engine(data.groups, data.hierarchies.get());

  CuboidSpec current = spec;
  for (int step = 0; step < 4; ++step) {
    auto ra = auto_engine.Execute(current, ExecStrategy::kAuto);
    auto rc = cb_engine.Execute(current, ExecStrategy::kCounterBased);
    ASSERT_TRUE(ra.ok() && rc.ok()) << "step " << step;
    ExpectCuboidsEqual(**rc, **ra, "auto session");
    switch (step) {
      case 0:
        current = *ops::PRollUp(current, "Y", *data.hierarchies);
        break;
      case 1:
        current = *ops::PDrillDown(current, "Y", *data.hierarchies);
        break;
      case 2: {
        auto sliced = ops::SliceToCell(current, **ra, (*ra)->ArgMaxCell());
        current = *ops::Append(*sliced, "Z",
                               {SyntheticData::kAttr, "symbol"});
        break;
      }
      default:
        break;
    }
  }
}

// Subsequence matcher against a brute-force oracle on tiny alphabets.
TEST(MatcherOracleProperty, SubsequenceCountsMatchBruteForce) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 30; ++round) {
    auto set = std::make_shared<SequenceGroupSet>("symbol");
    Dictionary& dict = set->raw_dictionary();
    for (char c = 'a'; c <= 'c'; ++c) dict.GetOrAdd(std::string(1, c));
    SequenceGroup& g = set->GroupFor({});
    std::uniform_int_distribution<int> len(2, 8), sym(0, 2);
    std::vector<std::vector<Code>> seqs;
    for (int s = 0; s < 10; ++s) {
      std::vector<Code> seq(len(rng));
      for (Code& c : seq) c = static_cast<Code>(sym(rng));
      g.AddSequence(seq);
      seqs.push_back(seq);
    }

    CuboidSpec spec;
    spec.kind = PatternKind::kSubsequence;
    spec.symbols = {"X", "Y"};
    spec.dims = {PatternDim{"X", {"symbol", "symbol"}, {}, ""},
                 PatternDim{"Y", {"symbol", "symbol"}, {}, ""}};
    SOlapEngine engine(set, nullptr);
    auto r = engine.Execute(spec, ExecStrategy::kInvertedIndex);
    ASSERT_TRUE(r.ok());

    // Oracle: a sequence supports (x, y) iff some i < j has s[i]=x, s[j]=y.
    std::map<std::pair<Code, Code>, int64_t> oracle;
    for (const auto& seq : seqs) {
      std::set<std::pair<Code, Code>> found;
      for (size_t i = 0; i < seq.size(); ++i) {
        for (size_t j = i + 1; j < seq.size(); ++j) {
          found.insert({seq[i], seq[j]});
        }
      }
      for (const auto& pr : found) ++oracle[pr];
    }
    EXPECT_EQ((*r)->num_cells(), oracle.size());
    for (const auto& [pr, count] : oracle) {
      EXPECT_EQ((*r)->CellAt({pr.first, pr.second}).count, count);
    }
  }
}

// --- Derived formations (DESIGN.md "Derived formations") -----------------
//
// A formation derived by slicing the cached formation of its unwindowed base
// must equal a fresh formation of the windowed spec: the same groups in the
// same order, the same sids and rows, and so bit-identical CB and II
// cuboids, on one shard and on four. The oracle wraps the same WHERE in
// NOT (NOT (...)), which selects the same rows but has no window conjunct,
// so it is always built from the table.

void ExpectCuboidsBitIdentical(const SCuboid& a, const SCuboid& b,
                               const std::string& what) {
  ASSERT_EQ(a.num_cells(), b.num_cells()) << what;
  for (const auto& [key, cell] : a.cells()) {
    const CellValue other = b.CellAt(key);
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

void ExpectSameFormation(const SequenceGroupSet& a, const SequenceGroupSet& b,
                         const std::string& what) {
  ASSERT_EQ(a.groups().size(), b.groups().size()) << what;
  for (size_t gi = 0; gi < a.groups().size(); ++gi) {
    const SequenceGroup& ga = a.groups()[gi];
    const SequenceGroup& gb = b.groups()[gi];
    EXPECT_EQ(ga.key(), gb.key()) << what << " group " << gi;
    ASSERT_EQ(ga.offsets(), gb.offsets()) << what << " group " << gi;
    for (Sid s = 0; s < ga.num_sequences(); ++s) {
      auto ra = ga.Rows(s);
      auto rb = gb.Rows(s);
      ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
          << what << " group " << gi << " sid " << s;
    }
  }
  EXPECT_EQ(a.formed_rows(), b.formed_rows()) << what;
}

struct WindowCase {
  std::string name;
  SequenceSpec seq;
  bool derived;  // whether the windowed spec takes the derivation path
};

ExprPtr TimeIs(ExprOp op, int64_t t) {
  return Expr::Cmp(op, Expr::Col("time"), Expr::Lit(Value::Timestamp(t)));
}

std::vector<WindowCase> WindowCases(const EventTable& table) {
  SequenceSpec daily;
  daily.cluster_by = {{"card-id", "individual"}, {"time", "day"}};
  daily.sequence_by = "time";
  auto with = [&](ExprPtr where) {
    SequenceSpec s = daily;
    s.where = std::move(where);
    return s;
  };
  auto day = [](int d) { return MakeTimestamp(2007, 10, 1 + d); };
  // Bounds equal to timestamps rows carry.
  std::vector<int64_t> times;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    times.push_back(table.Int64At(r, 0));
  }
  std::sort(times.begin(), times.end());
  const int64_t lo = times[times.size() / 4];
  const int64_t hi = times[times.size() * 3 / 4];
  auto between = [&](ExprOp lower, ExprOp upper) {
    return Expr::And(TimeIs(lower, lo), TimeIs(upper, hi));
  };

  std::vector<WindowCase> cases = {
      {"empty", with(TimeIs(ExprOp::kGe, day(30))), true},
      {"everything",
       with(Expr::And(TimeIs(ExprOp::kGe, day(-1)),
                      TimeIs(ExprOp::kLt, day(30)))),
       true},
      {"row_bounds_ge_lt", with(between(ExprOp::kGe, ExprOp::kLt)), true},
      {"row_bounds_gt_le", with(between(ExprOp::kGt, ExprOp::kLe)), true},
      {"lower_only", with(TimeIs(ExprOp::kGe, lo)), true},
      {"upper_only", with(TimeIs(ExprOp::kLt, hi)), true},
      {"residual",
       with(Expr::And(Expr::Eq(Expr::Col("action"),
                               Expr::Lit(Value::String("in"))),
                      between(ExprOp::kGe, ExprOp::kLt))),
       true},
  };
  // Every passenger travels every day, so with one sequence per card the
  // middle day cuts every sequence on both sides.
  WindowCase cut{"cuts_every_sequence",
                 with(Expr::And(TimeIs(ExprOp::kGe, day(1)),
                                TimeIs(ExprOp::kLt, day(2)))),
                 true};
  cut.seq.cluster_by = {{"card-id", "individual"}};
  cases.push_back(cut);
  WindowCase by_day{"group_by_day", with(between(ExprOp::kGe, ExprOp::kLt)),
                    true};
  by_day.seq.group_by = {{"time", "day"}};
  cases.push_back(by_day);
  // Starts after the first card's last day-1 event and ends on day 2:
  // that card keeps a day-2 sequence but no day-1 one, so the derived
  // groups come in another order than the base's.
  int64_t first_card_done = day(1);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    const int64_t t = table.Int64At(r, 0);
    if (table.CodeAt(r, 1) == table.CodeAt(0, 1) && t >= day(1) &&
        t < day(2)) {
      first_card_done = std::max(first_card_done, t + 1);
    }
  }
  WindowCase reordered{"group_by_day_reordered",
                       with(Expr::And(TimeIs(ExprOp::kGe, first_card_done),
                                      TimeIs(ExprOp::kLt, day(2) + 43200))),
                       true};
  reordered.seq.group_by = {{"time", "day"}};
  cases.push_back(reordered);
  WindowCase by_fare{"group_by_fare_falls_back",
                     with(between(ExprOp::kGe, ExprOp::kLt)), false};
  by_fare.seq.group_by = {{"card-id", "fare-group"}};
  cases.push_back(by_fare);
  WindowCase desc{"descending", with(between(ExprOp::kGt, ExprOp::kLt)),
                  true};
  desc.seq.ascending = false;
  cases.push_back(desc);
  WindowCase disjunction{
      "disjunction_falls_back",
      with(Expr::Or(TimeIs(ExprOp::kLt, lo), TimeIs(ExprOp::kGe, hi))),
      false};
  cases.push_back(disjunction);
  // Seeded random minute windows with random bound operators.
  std::mt19937_64 rng(20261019);
  const ExprOp lowers[] = {ExprOp::kGe, ExprOp::kGt};
  const ExprOp uppers[] = {ExprOp::kLt, ExprOp::kLe};
  for (int i = 0; i < 6; ++i) {
    const int64_t from = day(0) + static_cast<int64_t>(rng() % (3 * 1440)) * 60;
    const int64_t to = from + static_cast<int64_t>(rng() % (30 * 60)) * 60;
    cases.push_back({"random_" + std::to_string(i),
                     with(Expr::And(TimeIs(lowers[rng() % 2], from),
                                    TimeIs(uppers[rng() % 2], to))),
                     true});
  }
  return cases;
}

CuboidSpec PairCuboid(const SequenceSpec& seq, AggKind agg) {
  CuboidSpec spec;
  spec.seq = seq;
  spec.agg = agg;
  if (agg != AggKind::kCount) spec.measure = "amount";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "district"}, {}, ""}};
  return spec;
}

// Runs every case through `derived` (one engine, so later windows derive
// from the base the first one cached) and through `fresh` with the oracle
// WHERE, comparing CB and II cuboids, COUNT and SUM.
template <typename Engine>
void CompareDerivedWithFresh(Engine& derived, Engine& fresh,
                             const std::vector<WindowCase>& cases,
                             const std::string& shape) {
  for (const WindowCase& c : cases) {
    SequenceSpec oracle = c.seq;
    oracle.where = Expr::Not(Expr::Not(c.seq.where));
    bool first = true;
    for (AggKind agg : {AggKind::kCount, AggKind::kSum}) {
      for (ExecStrategy strategy :
           {ExecStrategy::kCounterBased, ExecStrategy::kInvertedIndex}) {
        const std::string what = shape + " " + c.name + " " +
                                 AggKindName(agg) + " " +
                                 StrategyName(strategy);
        ScanStats ds, fs;
        ExecControl dc, fc;
        dc.stats_out = &ds;
        fc.stats_out = &fs;
        auto a = derived.Execute(PairCuboid(c.seq, agg), strategy, dc);
        auto b = fresh.Execute(PairCuboid(oracle, agg), strategy, fc);
        ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
        ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
        ExpectCuboidsBitIdentical(**a, **b, what);
        EXPECT_EQ(fs.formations_derived, 0u) << what;
        if (first) {
          EXPECT_EQ(ds.formations_derived > 0, c.derived) << what;
        }
        first = false;
      }
    }
  }
}

EngineOptions DerivedOptions(size_t shards) {
  EngineOptions o;
  o.repository_capacity_bytes = 0;  // every query forms and scans
  o.shards = shards;
  o.shard_by = "card-id";
  o.exec_threads = shards;
  return o;
}

TEST(DerivedFormationProperty, DerivedEqualsFreshFormationOnOneShard) {
  TransitParams p;
  p.num_passengers = 300;
  p.num_days = 3;
  p.seed = 11;
  TransitData data = GenerateTransit(p);
  const std::vector<WindowCase> cases = WindowCases(*data.table);
  SOlapEngine derived(data.table.get(), data.hierarchies.get(),
                      DerivedOptions(1));
  SOlapEngine fresh(data.table.get(), data.hierarchies.get(),
                    DerivedOptions(1));
  CompareDerivedWithFresh(derived, fresh, cases, "1 shard");

  // The formations themselves: groups, order, sids and rows of a fresh
  // Build. A derived entry may have been evicted since its query; looking
  // it up again derives it anew from the cached base.
  SequenceQueryEngine sqe(data.hierarchies.get());
  for (const WindowCase& c : cases) {
    auto got = derived.GroupsFor(c.seq);
    ASSERT_TRUE(got.ok()) << c.name;
    auto want = sqe.Build(*data.table, c.seq);
    ASSERT_TRUE(want.ok()) << c.name;
    ExpectSameFormation(**got, **want, c.name);
    if (c.name == "empty") {
      EXPECT_TRUE((*got)->groups().empty());
    }
    if (c.name == "group_by_day_reordered") {
      SequenceSpec whole = c.seq;
      whole.where = nullptr;
      auto base = sqe.Build(*data.table, whole);
      ASSERT_TRUE(base.ok());
      ASSERT_EQ((*got)->groups().size(), 2u);
      EXPECT_EQ((*got)->groups()[0].key(), (*base)->groups()[2].key());
      EXPECT_EQ((*got)->groups()[1].key(), (*base)->groups()[1].key());
    }
    if (c.name == "cuts_every_sequence") {
      SequenceSpec whole = c.seq;
      whole.where = nullptr;
      auto base = sqe.Build(*data.table, whole);
      ASSERT_TRUE(base.ok());
      const SequenceGroup& cut = (*got)->groups()[0];
      const SequenceGroup& full = (*base)->groups()[0];
      ASSERT_EQ(cut.num_sequences(), full.num_sequences());
      for (Sid s = 0; s < cut.num_sequences(); ++s) {
        EXPECT_GT(cut.Rows(s).front(), full.Rows(s).front()) << s;
        EXPECT_LT(cut.length(s), full.length(s)) << s;
      }
    }
  }
}

TEST(DerivedFormationProperty, DerivedEqualsFreshFormationOnFourShards) {
  TransitParams p;
  p.num_passengers = 300;
  p.num_days = 3;
  p.seed = 11;
  TransitData data = GenerateTransit(p);
  const std::vector<WindowCase> cases = WindowCases(*data.table);
  const EventTable* table = data.table.get();
  ShardedEngine derived(table, data.hierarchies.get(), DerivedOptions(4));
  ShardedEngine fresh(table, data.hierarchies.get(), DerivedOptions(4));
  ASSERT_EQ(derived.num_shards(), 4u);
  CompareDerivedWithFresh(derived, fresh, cases, "4 shards");
}

}  // namespace
}  // namespace solap
