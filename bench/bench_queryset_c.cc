// Experiment E5 — §5.2 QuerySet C: pattern templates with *restricted*
// (repeated) symbols. The iterative session grows (X,Y) -> (X,Y,Y) ->
// (X,Y,Y,X), the paper's round-trip template, without slicing: the
// restriction comes purely from symbol equality.
//
// Paper shape to reproduce ("consistent with our discussion in §4.2.2"):
// II still wins by reusing the L2 built for QC1 for both joins, but the
// joins now filter to template-consistent instantiations, so intermediate
// indices are NOT complete (no P-ROLL-UP merging from them) and the join
// verification scans grow with the hit set.
#include <cstdio>

#include "bench_util.h"
#include "solap/gen/synthetic.h"

namespace solap {
namespace {

CuboidSpec TemplateOf(const std::vector<std::string>& symbols) {
  CuboidSpec spec;
  spec.symbols = symbols;
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

int Run(int argc, char** argv) {
  std::vector<size_t> d_list = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "d-list", "100000,250000"));
  std::printf(
      "== E5 / §5.2 QuerySet C: restricted symbols (X,Y) -> (X,Y,Y) -> "
      "(X,Y,Y,X) ==\n\n");
  for (size_t d : d_list) {
    SyntheticParams p;
    p.num_sequences = d;
    SyntheticData data = GenerateSynthetic(p);
    std::vector<CuboidSpec> queries = {TemplateOf({"X", "Y"}),
                                       TemplateOf({"X", "Y", "Y"}),
                                       TemplateOf({"X", "Y", "Y", "X"})};
    const char* labels[] = {"QC1", "QC2", "QC3"};

    std::vector<bench::Measurement> cb, ii;
    for (ExecStrategy strategy :
         {ExecStrategy::kCounterBased, ExecStrategy::kInvertedIndex}) {
      bool is_ii = strategy == ExecStrategy::kInvertedIndex;
      SOlapEngine engine(data.groups, data.hierarchies.get(),
                         EngineOptions{.default_strategy = strategy,
                                       .enable_index_cache = is_ii});
      for (size_t q = 0; q < queries.size(); ++q) {
        (is_ii ? ii : cb).push_back(
            bench::RunQuery(engine, queries[q], strategy, labels[q]));
      }
    }
    std::printf("%s\n", p.Tag().c_str());
    bench::PrintComparisonTable(cb, ii);
    std::printf("\n");
  }
  std::printf(
      "Expected shape: II reuses QC1's L2 for both APPEND joins and stays "
      "ahead of CB; join verification scans grow with template length.\n");
  return 0;
}

}  // namespace
}  // namespace solap

int main(int argc, char** argv) { return solap::Run(argc, argv); }
