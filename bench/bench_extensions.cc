// Experiment E10 (part 1) — google-benchmark micro-ablations for the §6
// performance extensions:
//  - the paper's "encode inverted indices as bitmaps so intersection
//    becomes bitwise-AND" idea, as the container posting lists realize it:
//    one list pair intersected on sparse lists (array containers) and on
//    dense lists (bitmap containers), with the container kernel mix per
//    intersection reported as counters (array / bitmap / run / gallop);
//  - warm CB query vs warm II query on the synthetic workload (the
//    steady-state cost once indices exist, with the cuboid repository
//    disabled so every iteration really executes).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "solap/engine/engine.h"
#include "solap/gen/synthetic.h"
#include "solap/index/container.h"

namespace solap {
namespace {

SidList MakeList(size_t n, size_t universe, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Sid> pick(0,
                                          static_cast<Sid>(universe - 1));
  std::vector<Sid> out(n);
  for (Sid& s : out) s = pick(rng);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return SidList::FromSorted(out);
}

// Arg = list length over a 2^20-sid universe (16 chunks): 2^10 and 2^14
// leave every chunk an array container, 2^18 turns every chunk into a
// bitmap, so the same call runs the merge kernels or the word-parallel AND.
void BM_ContainerIntersection(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t universe = 1 << 20;
  const SidList a = MakeList(n, universe, 1);
  const SidList b = MakeList(n, universe, 2);
  std::vector<Sid> out;
  ContainerOpCounts ops;
  IntersectSidLists(a, b, out, &ops);
  for (auto _ : state) {
    IntersectSidLists(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
  state.counters["array_ops"] = static_cast<double>(ops.array_ops);
  state.counters["bitmap_ops"] = static_cast<double>(ops.bitmap_ops);
  state.counters["run_ops"] = static_cast<double>(ops.run_ops);
  state.counters["gallop_ops"] = static_cast<double>(ops.gallop_ops);
  state.counters["list_kb"] =
      static_cast<double>(a.ByteSize() + b.ByteSize()) / 1024.0;
}
BENCHMARK(BM_ContainerIntersection)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

struct WarmEngines {
  WarmEngines() {
    SyntheticParams p;
    p.num_sequences = 20'000;
    p.mean_length = 12;
    data = GenerateSynthetic(p);
    spec.symbols = {"X", "Y"};
    spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
                 PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
    // Repository capacity 0: every Execute really runs.
    cb = std::make_unique<SOlapEngine>(
        data.groups, data.hierarchies.get(),
        EngineOptions{.default_strategy = ExecStrategy::kCounterBased,
                      .repository_capacity_bytes = 0,
                      .enable_index_cache = false});
    ii = std::make_unique<SOlapEngine>(
        data.groups, data.hierarchies.get(),
        EngineOptions{.default_strategy = ExecStrategy::kInvertedIndex,
                      .repository_capacity_bytes = 0,
                      .enable_index_cache = true});
    // Warm the II index cache.
    (void)ii->Execute(spec, ExecStrategy::kInvertedIndex);
  }
  SyntheticData data;
  CuboidSpec spec;
  std::unique_ptr<SOlapEngine> cb, ii;
};

WarmEngines& Engines() {
  static WarmEngines* e = new WarmEngines();
  return *e;
}

void BM_WarmQueryCounterBased(benchmark::State& state) {
  WarmEngines& e = Engines();
  for (auto _ : state) {
    auto r = e.cb->Execute(e.spec, ExecStrategy::kCounterBased);
    if (!r.ok()) state.SkipWithError("CB failed");
    benchmark::DoNotOptimize((*r)->num_cells());
  }
}
BENCHMARK(BM_WarmQueryCounterBased)->Unit(benchmark::kMillisecond);

void BM_WarmQueryInvertedIndex(benchmark::State& state) {
  WarmEngines& e = Engines();
  for (auto _ : state) {
    auto r = e.ii->Execute(e.spec, ExecStrategy::kInvertedIndex);
    if (!r.ok()) state.SkipWithError("II failed");
    benchmark::DoNotOptimize((*r)->num_cells());
  }
}
BENCHMARK(BM_WarmQueryInvertedIndex)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace solap

BENCHMARK_MAIN();
