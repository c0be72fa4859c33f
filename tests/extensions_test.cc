// Tests for the §6 extensions working together: iceberg S-cuboids through
// the query language and incremental update under day-batch arrival.
#include <gtest/gtest.h>

#include "solap/engine/engine.h"
#include "solap/gen/synthetic.h"
#include "solap/parser/parser.h"

namespace solap {
namespace {

SyntheticData SmallData() {
  SyntheticParams p;
  p.num_sequences = 500;
  p.num_symbols = 15;
  p.mean_length = 8;
  return GenerateSynthetic(p);
}

CuboidSpec XYSpec() {
  CuboidSpec spec;
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {SyntheticData::kAttr, "symbol"}, {}, ""},
               PatternDim{"Y", {SyntheticData::kAttr, "symbol"}, {}, ""}};
  return spec;
}

TEST(IcebergTest, ThresholdMonotonicity) {
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  CuboidSpec spec = XYSpec();
  auto full = engine.Execute(spec);
  ASSERT_TRUE(full.ok());
  size_t prev = (*full)->num_cells();
  for (int64_t threshold : {2, 5, 20, 100}) {
    spec.iceberg_min_count = threshold;
    auto r = engine.Execute(spec);
    ASSERT_TRUE(r.ok());
    EXPECT_LE((*r)->num_cells(), prev);
    for (const auto& [key, cell] : (*r)->cells()) {
      EXPECT_GE(cell.count, threshold);
      // Surviving cells keep their exact counts.
      EXPECT_EQ(cell.count, (*full)->CellAt(key).count);
    }
    prev = (*r)->num_cells();
  }
}

TEST(IcebergTest, ParsedIcebergKeywordFiltersCells) {
  // The ICEBERG extension is reachable from the query language.
  auto spec = ParseQuery(
      "SELECT COUNT(*) FROM E CLUSTER BY a AT a SEQUENCE BY t "
      "CUBOID BY SUBSTRING (X, Y) WITH X AS symbol AT symbol, "
      "Y AS symbol AT symbol LEFT-MAXIMALITY ICEBERG 10");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  auto r = engine.Execute(*spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const auto& [key, cell] : (*r)->cells()) {
    EXPECT_GE(cell.count, 10);
  }
}

TEST(IncrementalTest, DayBatchesKeepIndexBytesGrowing) {
  SyntheticParams p;
  p.num_sequences = 300;
  p.num_symbols = 15;
  p.mean_length = 8;
  SyntheticData data = GenerateSynthetic(p);
  SOlapEngine engine(data.groups, data.hierarchies.get());
  CuboidSpec spec = XYSpec();
  ASSERT_TRUE(engine.Execute(spec, ExecStrategy::kInvertedIndex).ok());
  size_t bytes_before = engine.IndexCacheBytes();
  ASSERT_GT(bytes_before, 0u);
  uint64_t scans_before = engine.stats().sequences_scanned;

  auto delta = GenerateSyntheticBatch(p, 100, 555);
  ASSERT_TRUE(engine.AppendRawSequences(0, delta).ok());
  // Only the delta was scanned: once to extend the index, once to patch
  // the cached cuboid.
  EXPECT_EQ(engine.stats().sequences_scanned, scans_before + 2 * 100);
  EXPECT_GE(engine.IndexCacheBytes(), bytes_before);

  // The cached cuboid was patched, not dropped: the next query is a
  // repository hit.
  uint64_t repo_hits = engine.stats().repository_hits;
  auto r = engine.Execute(spec, ExecStrategy::kInvertedIndex);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine.stats().repository_hits, repo_hits + 1);
}

TEST(IncrementalTest, AppendValidation) {
  SyntheticData data = SmallData();
  SOlapEngine engine(data.groups, data.hierarchies.get());
  EXPECT_FALSE(engine.AppendRawSequences(99, {}).ok());

  // Table-backed engines direct callers to IngestRows.
  Schema schema({{"t", ValueType::kInt64, FieldRole::kDimension}});
  EventTable table(schema);
  SOlapEngine table_engine(&table, nullptr);
  EXPECT_FALSE(table_engine.AppendRawSequences(0, {}).ok());
}

}  // namespace
}  // namespace solap
