// Experiment E4 — reproduces §5.2 QuerySet B: P-ROLL-UP and P-DRILL-DOWN
// performance under CB and II, varying D and L.
//
// Setup (paper): events organized into 3 concept levels (100 symbols ->
// 20 groups -> 5 super-groups, Zipf-sized). QB1 = SUBSTRING(X, Y, Z) with
// X at the middle (group) level; QB2 selects the subcube with the highest
// total for one X value and P-DRILL-DOWNs X to the finest level; QB3 takes
// the same subcube and P-ROLL-UPs Y to the highest (super-group) level.
// The index L3^(X,Y,Z) is precomputed for II.
//
// Paper shape to reproduce: CB and II comparable on QB2 (the subcube with
// the highest count is not selective, so II also scans a lot while
// refining); II beats CB on QB3 (list merging needs no data scan at all).
#include <cstdio>

#include "bench_util.h"
#include "solap/gen/synthetic.h"

namespace solap {
namespace {

CuboidSpec QB1() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y", "Z"};
  spec.dims = {
      PatternDim{"X", {SyntheticData::kAttr, "group"}, {}, ""},
      PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""},
      PatternDim{"Z", {SyntheticData::kAttr, "symbol"}, {}, ""},
  };
  return spec;
}

// The paper's "subcube with the highest total count for one X value".
std::string HottestXLabel(const SCuboid& cuboid) {
  std::unordered_map<Code, double> totals;
  for (const auto& [key, cell] : cuboid.cells()) {
    totals[key[0]] += cell.Value(AggKind::kCount);
  }
  Code best = 0;
  double best_total = -1;
  for (const auto& [code, total] : totals) {
    if (total > best_total) {
      best = code;
      best_total = total;
    }
  }
  return cuboid.LabelOf(0, best);
}

void RunOne(const SyntheticParams& params) {
  SyntheticData data = GenerateSynthetic(params);
  CuboidSpec qb1 = QB1();

  struct Row {
    const char* label;
    bench::Measurement cb, ii;
  };
  std::vector<Row> rows = {{"QB1", {}, {}}, {"QB2", {}, {}}, {"QB3", {}, {}}};

  for (ExecStrategy strategy :
       {ExecStrategy::kCounterBased, ExecStrategy::kInvertedIndex}) {
    bool is_ii = strategy == ExecStrategy::kInvertedIndex;
    // Cuboid repository disabled: every query must really execute.
    SOlapEngine engine(data.groups, data.hierarchies.get(),
                       EngineOptions{.default_strategy = strategy,
                                     .repository_capacity_bytes = 0,
                                     .enable_index_cache = is_ii});
    if (is_ii) {
      // Paper: L3^(X,Y,Z) was precomputed in advance. Answering QB1 once
      // materializes exactly that index; drop the timing.
      (void)engine.Execute(qb1, strategy);
      engine.stats().Clear();
    }
    std::shared_ptr<const SCuboid> sub;
    bench::Measurement m1 =
        bench::RunQuery(engine, qb1, strategy, "QB1", &sub);
    std::string hot_x = HottestXLabel(*sub);
    auto sliced = ops::SlicePattern(qb1, "X", {hot_x});
    auto qb2 = ops::PDrillDown(*sliced, "X", *data.hierarchies);
    if (!qb2.ok()) std::exit(1);
    bench::Measurement m2 = bench::RunQuery(engine, *qb2, strategy, "QB2");

    auto qb3 = ops::PRollUpTo(*sliced, "Y", SyntheticData::kLevelSuper);
    if (!qb3.ok()) std::exit(1);
    bench::Measurement m3 = bench::RunQuery(engine, *qb3, strategy, "QB3");

    (is_ii ? rows[0].ii : rows[0].cb) = m1;
    (is_ii ? rows[1].ii : rows[1].cb) = m2;
    (is_ii ? rows[2].ii : rows[2].cb) = m3;
  }

  std::printf("%s (3-level hierarchy 100->20->5)\n", params.Tag().c_str());
  std::vector<bench::Measurement> cb, ii;
  for (const Row& r : rows) {
    cb.push_back(r.cb);
    ii.push_back(r.ii);
  }
  bench::PrintComparisonTable(cb, ii);
  std::printf("\n");
}

int Run(int argc, char** argv) {
  std::vector<size_t> d_list = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "d-list", "100000,250000"));
  std::vector<size_t> l_list =
      bench::ParseSizeList(bench::FlagValue(argc, argv, "l-list", "10,20"));
  std::printf("== E4 / §5.2 QuerySet B: P-ROLL-UP and P-DRILL-DOWN ==\n\n");
  std::printf("-- (a) varying D (L=20) --\n");
  for (size_t d : d_list) {
    SyntheticParams p;
    p.num_sequences = d;
    RunOne(p);
  }
  std::printf("-- (b) varying L (D=%zu) --\n", d_list.front());
  for (size_t l : l_list) {
    SyntheticParams p;
    p.num_sequences = d_list.front();
    p.mean_length = static_cast<double>(l);
    RunOne(p);
  }
  std::printf(
      "Expected shape (paper §5.2): CB and II comparable on QB2 "
      "(P-DRILL-DOWN of a non-selective subcube); II far ahead on QB3 "
      "(P-ROLL-UP answered by merging lists, zero sequences scanned).\n");
  return 0;
}

}  // namespace
}  // namespace solap

int main(int argc, char** argv) { return solap::Run(argc, argv); }
