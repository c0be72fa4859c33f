// Experiments E2 + E3 — reproduce Figure 16 (QuerySet A, varying the
// number of sequences D) and the §5.2 "varying L" summary.
//
// QuerySet A: QA1 = SUBSTRING(X, Y); each QA_{k+1} slices QA_k's highest
// cell and APPENDs a fresh symbol, growing to size-six patterns. Size-two
// inverted indices at the finest abstraction level are precomputed for II
// (the paper reports their build time and size).
//
// Paper shape to reproduce: both CB and II scale linearly in D (and L);
// II outperforms CB throughout; CB rescans the whole dataset per query
// while II's follow-ups touch only the sliced lists (the paper's
// bracketed cumulative scan counts, e.g. 7.07k vs 500k at QA3/D100K).
#include <cstdio>

#include "bench_util.h"
#include "solap/gen/synthetic.h"
#include "solap/index/inverted_index.h"

namespace solap {
namespace {

CuboidSpec InitialXY() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

void RunOne(const SyntheticParams& params, size_t num_queries) {
  SyntheticData data = GenerateSynthetic(params);
  const LevelRef fine{SyntheticData::kAttr, "symbol"};

  // CB: no auxiliary structures at all.
  SOlapEngine cb_engine(data.groups, data.hierarchies.get(),
                        EngineOptions{
                            .default_strategy = ExecStrategy::kCounterBased,
                            .enable_index_cache = false});
  auto cb = bench::RunQaSession(cb_engine, ExecStrategy::kCounterBased,
                                InitialXY(), num_queries, fine);

  // II: precompute the size-2 index at the finest level (paper setup).
  SOlapEngine ii_engine(data.groups, data.hierarchies.get());
  Timer pre;
  if (!ii_engine.PrecomputeIndex(InitialXY(), 2, fine).ok()) std::exit(1);
  double pre_s = pre.ElapsedSec();
  std::printf("%s: precomputed L2 in %.3fs (%.1f MB)\n",
              params.Tag().c_str(), pre_s,
              bench::Mb(ii_engine.IndexCacheBytes()));
  ii_engine.stats().Clear();
  auto ii = bench::RunQaSession(ii_engine, ExecStrategy::kInvertedIndex,
                                InitialXY(), num_queries, fine);
  bench::PrintCumulativeSeries(cb, ii);
  std::printf("\n");
}

int Run(int argc, char** argv) {
  std::string mode = bench::FlagValue(argc, argv, "vary", "both");
  size_t num_queries = static_cast<size_t>(std::strtoull(
      bench::FlagValue(argc, argv, "queries", "5").c_str(), nullptr, 10));
  std::vector<size_t> d_list = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "d-list", "100000,500000,1000000"));
  std::vector<size_t> l_list = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "l-list", "10,20,30"));
  size_t d_for_l = static_cast<size_t>(std::strtoull(
      bench::FlagValue(argc, argv, "d-for-l", "500000").c_str(), nullptr,
      10));

  if (mode == "D" || mode == "both") {
    std::printf(
        "== E2 / Figure 16: QuerySet A, varying D (I100.Lx20.t0.9) ==\n\n");
    for (size_t d : d_list) {
      SyntheticParams p;
      p.num_sequences = d;
      RunOne(p, num_queries);
    }
  }
  if (mode == "L" || mode == "both") {
    std::printf("== E3 / §5.2 QuerySet A (b): varying L (I100.t0.9.D%zu) "
                "==\n\n",
                d_for_l);
    for (size_t l : l_list) {
      SyntheticParams p;
      p.num_sequences = d_for_l;
      p.mean_length = static_cast<double>(l);
      RunOne(p, num_queries);
    }
  }
  std::printf(
      "Expected shape (paper Fig. 16): linear scaling in D and L; II below "
      "CB everywhere; II's cumulative scans frozen after QA2 while CB "
      "rescans D sequences per query.\n");
  return 0;
}

}  // namespace
}  // namespace solap

int main(int argc, char** argv) { return solap::Run(argc, argv); }
