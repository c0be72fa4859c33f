// Experiment E6 — §5.2 "varying skewness factor theta": the QuerySet-A
// iterative session at different Zipf skews of the symbol and transition
// distributions.
//
// Paper shape to reproduce: results "consistent with the §4.2 discussion" —
// II beats CB across skews. Higher skew concentrates mass in fewer
// patterns: the sliced hot cell's list grows, so II's follow-up work grows
// with theta while CB stays flat (it always scans everything).
#include <cstdio>

#include "bench_util.h"
#include "solap/gen/synthetic.h"

namespace solap {
namespace {

CuboidSpec InitialXY() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

int Run(int argc, char** argv) {
  std::vector<double> thetas = bench::ParseDoubleList(
      bench::FlagValue(argc, argv, "theta-list", "0.5,0.9,1.2"));
  size_t d = static_cast<size_t>(std::strtoull(
      bench::FlagValue(argc, argv, "d", "200000").c_str(), nullptr, 10));
  std::printf("== E6 / §5.2: varying skew theta (I100.L20.D%zu) ==\n\n", d);
  const LevelRef fine{SyntheticData::kAttr, "symbol"};
  for (double theta : thetas) {
    SyntheticParams p;
    p.num_sequences = d;
    p.theta = theta;
    SyntheticData data = GenerateSynthetic(p);

    SOlapEngine cb_engine(data.groups, data.hierarchies.get(),
                          EngineOptions{
                              .default_strategy = ExecStrategy::kCounterBased,
                              .enable_index_cache = false});
    auto cb = bench::RunQaSession(cb_engine, ExecStrategy::kCounterBased,
                                  InitialXY(), 4, fine);
    SOlapEngine ii_engine(data.groups, data.hierarchies.get());
    if (!ii_engine.PrecomputeIndex(InitialXY(), 2, fine).ok()) return 1;
    ii_engine.stats().Clear();
    auto ii = bench::RunQaSession(ii_engine, ExecStrategy::kInvertedIndex,
                                  InitialXY(), 4, fine);
    std::printf("theta = %.1f\n", theta);
    bench::PrintCumulativeSeries(cb, ii);
    std::printf("\n");
  }
  std::printf(
      "Expected shape: II ahead of CB at every theta; II's scan counts "
      "grow with theta (hotter sliced cells -> longer lists), CB's stay at "
      "D per query.\n");
  return 0;
}

}  // namespace
}  // namespace solap

int main(int argc, char** argv) { return solap::Run(argc, argv); }
