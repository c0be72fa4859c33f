// Experiment E10 (part 2) — ablations for the §6 extensions that need an
// experiment-harness shape rather than a micro-benchmark:
//  - iceberg S-cuboids: cells surviving vs minimum-support threshold;
//  - bitmap-encoded joins: the same join on sparse and on dense lists,
//    with the container kernel mix the joins ran;
//  - incremental update: maintaining indices from a delta vs rebuilding.
// The online-aggregation part (how early a usable estimate of the hottest
// cell became available) was removed together with the engine's online
// aggregation entry point, which no served path called; its last recorded
// result is kept in EXPERIMENTS.md E10.
#include <cstdio>
#include <utility>

#include "bench_util.h"
#include "solap/gen/synthetic.h"

namespace solap {
namespace {

CuboidSpec XYSpec() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

void IcebergSweep(const SyntheticData& data) {
  std::printf("-- Iceberg sweep (SUBSTRING(X,Y), COUNT) --\n");
  std::printf("%12s %12s %14s\n", "min support", "cells", "runtime(ms)");
  for (int64_t threshold : {0, 10, 100, 1000, 10000}) {
    SOlapEngine engine(data.groups, data.hierarchies.get());
    CuboidSpec spec = XYSpec();
    if (threshold > 0) spec.iceberg_min_count = threshold;
    Timer t;
    auto r = engine.Execute(spec);
    if (!r.ok()) std::exit(1);
    std::printf("%12lld %12zu %14.2f\n",
                static_cast<long long>(threshold), (*r)->num_cells(),
                t.ElapsedMs());
  }
  std::printf("\n");
}

void IncrementalVsRebuild(const SyntheticParams& params,
                          const SyntheticData& data) {
  std::printf("-- Incremental index maintenance vs full rebuild --\n");
  std::printf("%10s %22s %22s\n", "batch", "incremental(ms)",
              "full rebuild(ms)");
  for (size_t batch : {1000u, 5000u, 20000u}) {
    // Incremental: extend the group + cached L2 with only the delta.
    SyntheticData inc = GenerateSynthetic(params);
    SOlapEngine engine(inc.groups, inc.hierarchies.get());
    if (!engine.PrecomputeIndex(XYSpec(), 2,
                                {SyntheticData::kAttr, "symbol"})
             .ok()) {
      std::exit(1);
    }
    auto delta = GenerateSyntheticBatch(params, batch, 4242);
    Timer t_inc;
    if (!engine.AppendRawSequences(0, delta).ok()) std::exit(1);
    auto r = engine.Execute(XYSpec(), ExecStrategy::kInvertedIndex);
    if (!r.ok()) std::exit(1);
    double inc_ms = t_inc.ElapsedMs();

    // Rebuild: fresh engine over the already-extended data.
    SOlapEngine fresh(inc.groups, inc.hierarchies.get());
    Timer t_full;
    if (!fresh.PrecomputeIndex(XYSpec(), 2,
                               {SyntheticData::kAttr, "symbol"})
             .ok()) {
      std::exit(1);
    }
    auto r2 = fresh.Execute(XYSpec(), ExecStrategy::kInvertedIndex);
    if (!r2.ok()) std::exit(1);
    double full_ms = t_full.ElapsedMs();
    std::printf("%10zu %22.2f %22.2f\n", batch, inc_ms, full_ms);
  }
  std::printf("\n");
  (void)data;
}

// The §6 bitmap idea as the container posting lists realize it: a chunk
// holding more than 4096 sids is a bitmap container, so the joins of a
// dense data set (few symbols, long lists) run word-parallel ANDs and
// membership probes, while a sparse one (the default alphabet) runs array
// merges and galloping. The kernel mix comes from the engine's ScanStats.
void BitmapJoinAblation(const SyntheticParams& params) {
  std::printf("-- Bitmap containers in the join: sparse vs dense lists "
              "(SUBSTRING(X,Y,Y,X)) --\n");
  std::printf("%10s %8s %12s %10s %10s %10s %10s\n", "lists", "symbols",
              "runtime(ms)", "array", "bitmap", "run", "gallop");
  const std::pair<const char*, size_t> regimes[] = {
      {"sparse", params.num_symbols}, {"dense", 5}};
  for (const auto& [label, symbols] : regimes) {
    SyntheticParams p = params;
    p.num_symbols = symbols;
    SyntheticData data = GenerateSynthetic(p);
    CuboidSpec spec;
    spec.symbols = {"X", "Y", "Y", "X"};
    spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
                 PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
    SOlapEngine engine(data.groups, data.hierarchies.get());
    Timer t;
    auto r = engine.Execute(spec, ExecStrategy::kInvertedIndex);
    if (!r.ok()) std::exit(1);
    const double ms = t.ElapsedMs();
    const ScanStats& st = engine.stats();
    std::printf("%10s %8zu %12.2f %10llu %10llu %10llu %10llu\n",
                label, symbols, ms,
                static_cast<unsigned long long>(st.container_array_ops),
                static_cast<unsigned long long>(st.container_bitmap_ops),
                static_cast<unsigned long long>(st.container_run_ops),
                static_cast<unsigned long long>(st.container_gallop_ops));
  }
  std::printf("\n");
}

int Run(int argc, char** argv) {
  SyntheticParams params;
  params.num_sequences = static_cast<size_t>(std::strtoull(
      bench::FlagValue(argc, argv, "d", "100000").c_str(), nullptr, 10));
  std::printf("== E10 / §6 extension ablations (%s) ==\n\n",
              params.Tag().c_str());
  SyntheticData data = GenerateSynthetic(params);
  IcebergSweep(data);
  BitmapJoinAblation(params);
  IncrementalVsRebuild(params, data);
  std::printf(
      "Expected shape: iceberg cost flat while surviving cells collapse; "
      "dense lists move the join's kernel mix to bitmap ops; "
      "incremental maintenance cost tracks the delta, not the dataset.\n");
  return 0;
}

}  // namespace
}  // namespace solap

int main(int argc, char** argv) { return solap::Run(argc, argv); }
