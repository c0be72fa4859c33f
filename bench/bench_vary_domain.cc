// Experiment E7 — §5.2 "varying domain I": the QuerySet-A iterative
// session with different numbers of distinct event symbols.
//
// Paper shape to reproduce: II beats CB across domain sizes. A larger
// domain spreads the same data over more lists: the precomputed L2 grows
// in list count (more, shorter lists) while each hot list shrinks, so II's
// follow-up work *drops* with I; CB is insensitive to I.
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
  std::vector<size_t> i_list = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "i-list", "50,100,200"));
  size_t d = static_cast<size_t>(std::strtoull(
      bench::FlagValue(argc, argv, "d", "200000").c_str(), nullptr, 10));
  std::printf("== E7 / §5.2: varying domain I (L20.t0.9.D%zu) ==\n\n", d);
  const LevelRef fine{SyntheticData::kAttr, "symbol"};
  for (size_t i : i_list) {
    SyntheticParams p;
    p.num_sequences = d;
    p.num_symbols = i;
    SyntheticData data = GenerateSynthetic(p);

    SOlapEngine cb_engine(data.groups, data.hierarchies.get(),
                          EngineOptions{
                              .default_strategy = ExecStrategy::kCounterBased,
                              .enable_index_cache = false});
    auto cb = bench::RunQaSession(cb_engine, ExecStrategy::kCounterBased,
                                  InitialXY(), 4, fine);
    SOlapEngine ii_engine(data.groups, data.hierarchies.get());
    Timer pre;
    if (!ii_engine.PrecomputeIndex(InitialXY(), 2, fine).ok()) return 1;
    std::printf("I = %zu: L2 precompute %.3fs, %.1f MB\n", i,
                pre.ElapsedSec(), bench::Mb(ii_engine.IndexCacheBytes()));
    ii_engine.stats().Clear();
    auto ii = bench::RunQaSession(ii_engine, ExecStrategy::kInvertedIndex,
                                  InitialXY(), 4, fine);
    bench::PrintCumulativeSeries(cb, ii);
    std::printf("\n");
  }
  std::printf(
      "Expected shape: II ahead of CB at every I; II's follow-up scans "
      "shrink as I grows (hot lists get shorter), CB stays at D per "
      "query.\n");
  return 0;
}

}  // namespace
}  // namespace solap

int main(int argc, char** argv) { return solap::Run(argc, argv); }
