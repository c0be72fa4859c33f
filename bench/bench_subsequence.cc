// Experiment E8 — §5.2 "experiments with subsequence patterns": the
// QuerySet-A iterative session with SUBSEQUENCE templates instead of
// SUBSTRING.
//
// Paper shape to reproduce: consistent with the §4.2 discussion — II
// remains ahead of CB. Subsequence matching enumerates gapped occurrences,
// so absolute costs are higher for both strategies; the II advantage on
// sliced follow-ups is preserved because list containment and greedy
// verification carry over unchanged.
#include <cstdio>

#include "bench_util.h"
#include "solap/gen/synthetic.h"

namespace solap {
namespace {

CuboidSpec InitialXY() {
  CuboidSpec spec;
  spec.kind = PatternKind::kSubsequence;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

int Run(int argc, char** argv) {
  std::vector<size_t> d_list = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "d-list", "25000,50000"));
  size_t queries = static_cast<size_t>(std::strtoull(
      bench::FlagValue(argc, argv, "queries", "3").c_str(), nullptr, 10));
  std::printf("== E8 / §5.2: SUBSEQUENCE patterns (I100.L10.t0.9) ==\n\n");
  const LevelRef fine{SyntheticData::kAttr, "symbol"};
  for (size_t d : d_list) {
    SyntheticParams p;
    p.num_sequences = d;
    p.mean_length = 10;  // subsequence enumeration is combinatorial
    SyntheticData data = GenerateSynthetic(p);

    SOlapEngine cb_engine(data.groups, data.hierarchies.get(),
                          EngineOptions{
                              .default_strategy = ExecStrategy::kCounterBased,
                              .enable_index_cache = false});
    auto cb = bench::RunQaSession(cb_engine, ExecStrategy::kCounterBased,
                                  InitialXY(), queries, fine);
    SOlapEngine ii_engine(data.groups, data.hierarchies.get());
    if (!ii_engine.PrecomputeIndex(InitialXY(), 2, fine).ok()) return 1;
    ii_engine.stats().Clear();
    auto ii = bench::RunQaSession(ii_engine, ExecStrategy::kInvertedIndex,
                                  InitialXY(), queries, fine);
    std::printf("%s (subsequence)\n", p.Tag().c_str());
    bench::PrintCumulativeSeries(cb, ii);
    std::printf("\n");
  }
  std::printf(
      "Expected shape: same CB-vs-II relationship as the substring "
      "QuerySet A, at higher absolute cost.\n");
  return 0;
}

}  // namespace
}  // namespace solap

int main(int argc, char** argv) { return solap::Run(argc, argv); }
