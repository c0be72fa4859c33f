// Tour of the §6 extensions: iceberg S-cuboids, incremental update, and
// bitmap-encoded inverted indices (the bitmap containers of the posting
// lists). The tour's online-aggregation and materialization-advisor
// sections were removed together with that engine code, which no query
// path, shell command or service route called; EXPERIMENTS.md E10 keeps
// the recorded online-aggregation result.
//
//   ./build/examples/extensions_tour
#include <cstdio>

#include "solap/engine/engine.h"
#include "solap/gen/synthetic.h"
#include "solap/index/build_index.h"
#include "solap/parser/parser.h"

using namespace solap;

int main() {
  SyntheticParams params;
  params.num_sequences = 50'000;
  std::printf("Synthetic dataset %s\n\n", params.Tag().c_str());
  SyntheticData data = GenerateSynthetic(params);
  SOlapEngine engine(data.groups, data.hierarchies.get());

  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};

  // 1. Iceberg S-cuboids: ICEBERG in the query language keeps only cells
  //    above a minimum support (many cells are sparse — paper §6).
  auto full = engine.Execute(spec);
  CuboidSpec iceberg = spec;
  iceberg.iceberg_min_count = 500;
  auto ice = engine.Execute(iceberg);
  std::printf("1. Iceberg: %zu cells -> %zu cells with min support 500\n\n",
              (*full)->num_cells(), (*ice)->num_cells());

  // 2. Incremental update: a new day of sequences arrives; cached complete
  //    indices are extended by scanning only the delta.
  SOlapEngine inc_engine(data.groups, data.hierarchies.get());
  (void)inc_engine.Execute(spec, ExecStrategy::kInvertedIndex);
  uint64_t scans_before = inc_engine.stats().sequences_scanned;
  auto delta = GenerateSyntheticBatch(params, 2'000, 20071226);
  if (!inc_engine.AppendRawSequences(0, delta).ok()) return 1;
  std::printf("2. Incremental update: appended %zu sequences; index "
              "maintenance scanned %llu sequences (the delta only)\n\n",
              delta.size(),
              static_cast<unsigned long long>(
                  inc_engine.stats().sequences_scanned - scans_before));

  // 3. Bitmap-encoded inverted index: every posting list is chunked into
  //    array / bitmap / run containers, and a chunk holding more than 4096
  //    sids is a bitmap, so joins over dense lists run word-parallel ANDs.
  //    The same data with a 5-symbol alphabet has dense lists.
  SyntheticParams dense_params = params;
  dense_params.num_symbols = 5;
  SyntheticData dense = GenerateSynthetic(dense_params);
  std::printf("3. Bitmap containers (L2 index of the first group):\n");
  for (const SyntheticData* d : {&data, &dense}) {
    IndexShape shape;
    shape.positions.assign(2, LevelRef{SyntheticData::kAttr, "symbol"});
    ScanStats stats;
    auto l2 = BuildIndex(&d->groups->groups()[0], *d->groups,
                         d->hierarchies.get(), shape, &stats);
    if (!l2.ok()) return 1;
    size_t kinds[3] = {0, 0, 0};
    for (const auto& [key, list] : (*l2)->lists()) {
      for (const SidContainer& c : list.containers()) {
        ++kinds[static_cast<size_t>(c.kind)];
      }
    }
    std::printf("   %3zu symbols: %5zu lists, %.2f MB in %zu array / %zu "
                "bitmap / %zu run containers\n",
                d == &data ? params.num_symbols : dense_params.num_symbols,
                (*l2)->num_lists(), (*l2)->ByteSize() / 1048576.0, kinds[0],
                kinds[1], kinds[2]);
  }
  SOlapEngine dense_engine(dense.groups, dense.hierarchies.get());
  CuboidSpec xyz = spec;
  xyz.symbols = {"X", "Y", "Z"};
  xyz.dims.push_back(
      PatternDim{"Z", {SyntheticData::kAttr, "symbol"}, {}, ""});
  if (!dense_engine.Execute(xyz, ExecStrategy::kInvertedIndex).ok()) return 1;
  const ScanStats& js = dense_engine.stats();
  std::printf("   dense (X,Y,Z) joins: %llu intersections ran %llu array, "
              "%llu bitmap, %llu run and %llu gallop container ops\n",
              static_cast<unsigned long long>(js.list_intersections),
              static_cast<unsigned long long>(js.container_array_ops),
              static_cast<unsigned long long>(js.container_bitmap_ops),
              static_cast<unsigned long long>(js.container_run_ops),
              static_cast<unsigned long long>(js.container_gallop_ops));
  return 0;
}
