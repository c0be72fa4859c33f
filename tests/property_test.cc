// Property-based tests over randomized synthetic data (parameterized gtest
// sweeps). The central invariant is the paper's implicit correctness claim:
// the counter-based and inverted-index strategies compute the SAME S-cuboid
// for every specification. Further invariants: index derivation paths
// (roll-up merge, drill-down refine, prefix/suffix joins) agree with direct
// computation, incremental update equals rebuild, and the subsequence
// matcher agrees with a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
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

// Multi-threaded counter-based scans must produce the same cuboid as the
// sequential scan, for COUNT and for merged SUM/MIN/MAX state.
TEST(ParallelScanProperty, ThreadedCounterBasedEqualsSequential) {
  SyntheticParams p;
  p.num_sequences = 5000;  // enough to cross the per-thread minimum
  p.num_symbols = 15;
  p.mean_length = 8;
  SyntheticData data = GenerateSynthetic(p);
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  EngineOptions threaded;
  threaded.cb_threads = 4;
  SOlapEngine seq_engine(data.groups, data.hierarchies.get());
  SOlapEngine par_engine(data.groups, data.hierarchies.get(), threaded);
  auto a = seq_engine.Execute(spec, ExecStrategy::kCounterBased);
  auto b = par_engine.Execute(spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectCuboidsEqual(**a, **b, "threaded CB");
  // Stats accumulate across threads: every sequence scanned exactly once.
  EXPECT_EQ(par_engine.stats().sequences_scanned, 5000u);

  // SUM over a table-backed workload, all restrictions.
  TransitParams tp;
  tp.num_passengers = 3000;
  tp.num_days = 1;
  TransitData transit = GenerateTransit(tp);
  CuboidSpec sum_spec;
  sum_spec.agg = AggKind::kSum;
  sum_spec.measure = "amount";
  sum_spec.seq.cluster_by = {{"card-id", "individual"}};
  sum_spec.seq.sequence_by = "time";
  sum_spec.symbols = {"X", "Y"};
  sum_spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
                   PatternDim{"Y", {"location", "station"}, {}, ""}};
  SOlapEngine ts(transit.table.get(), transit.hierarchies.get());
  SOlapEngine tp4(transit.table.get(), transit.hierarchies.get(), threaded);
  auto sa = ts.Execute(sum_spec, ExecStrategy::kCounterBased);
  auto sb = tp4.Execute(sum_spec, ExecStrategy::kCounterBased);
  ASSERT_TRUE(sa.ok() && sb.ok());
  for (const auto& [key, cell] : (*sa)->cells()) {
    CellValue other = (*sb)->CellAt(key);
    EXPECT_EQ(other.count, cell.count);
    EXPECT_NEAR(other.sum, cell.sum, 1e-9);
    EXPECT_NEAR(other.min, cell.min, 1e-9);
    EXPECT_NEAR(other.max, cell.max, 1e-9);
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

}  // namespace
}  // namespace solap
