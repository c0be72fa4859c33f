// Unit tests for the cube module: cell aggregation, SCuboid operations,
// cuboid specs and the LRU repository.
#include <gtest/gtest.h>

#include "solap/cube/cuboid.h"
#include "solap/cube/cuboid_repository.h"
#include "solap/cube/cuboid_spec.h"

namespace solap {
namespace {

TEST(CellValueTest, AggregationFolding) {
  CellValue c;
  c.Add(3.0);
  c.Add(-1.0);
  c.Add(4.0);
  EXPECT_EQ(c.count, 3);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kCount), 3.0);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kSum), 6.0);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kAvg), 2.0);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kMin), -1.0);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kMax), 4.0);
}

TEST(CellValueTest, EmptyCellNeutralValues) {
  CellValue c;
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kCount), 0.0);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kSum), 0.0);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kAvg), 0.0);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kMin), 0.0);
  EXPECT_DOUBLE_EQ(c.Value(AggKind::kMax), 0.0);
}

TEST(CellValueTest, MergeCombinesStates) {
  CellValue a, b;
  a.Add(1.0);
  a.Add(5.0);
  b.Add(-2.0);
  a.Merge(b);
  EXPECT_EQ(a.count, 3);
  EXPECT_DOUBLE_EQ(a.sum, 4.0);
  EXPECT_DOUBLE_EQ(a.min, -2.0);
  EXPECT_DOUBLE_EQ(a.max, 5.0);
}

SCuboid MakeCuboid() {
  std::vector<DimDescriptor> dims = {
      {"X", {"location", "station"}, true},
      {"Y", {"location", "station"}, true},
  };
  SCuboid c(dims, AggKind::kCount);
  c.Add({0, 1}, 0);
  c.Add({0, 1}, 0);
  c.Add({2, 3}, 0);
  c.SetLabel(0, 0, "Pentagon");
  c.SetLabel(1, 1, "Wheaton");
  c.SetLabel(0, 2, "Clarendon");
  c.SetLabel(1, 3, "Deanwood");
  return c;
}

TEST(SCuboidTest, CellAccessAndLabels) {
  SCuboid c = MakeCuboid();
  EXPECT_EQ(c.num_cells(), 2u);
  EXPECT_DOUBLE_EQ(c.ValueAt({0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(c.ValueAt({9, 9}), 0.0);  // absent cell
  EXPECT_EQ(c.LabelOf(0, 0), "Pentagon");
  EXPECT_EQ(c.LabelOf(0, 77), "77");  // fallback to the numeric code
}

TEST(SCuboidTest, ArgMaxAndTopCells) {
  SCuboid c = MakeCuboid();
  EXPECT_EQ(c.ArgMaxCell(), (CellKey{0, 1}));
  auto top = c.TopCells(0);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, (CellKey{0, 1}));
  EXPECT_DOUBLE_EQ(top[0].second, 2.0);
  EXPECT_EQ(c.TopCells(1).size(), 1u);
}

TEST(SCuboidTest, IcebergDropsBelowThreshold) {
  SCuboid c = MakeCuboid();
  EXPECT_EQ(c.ApplyIceberg(2), 1u);
  EXPECT_EQ(c.num_cells(), 1u);
  EXPECT_DOUBLE_EQ(c.ValueAt({2, 3}), 0.0);
}

TEST(SCuboidTest, ToTableRendersLabelsAndValues) {
  SCuboid c = MakeCuboid();
  std::string t = c.ToTable(1);
  EXPECT_NE(t.find("Pentagon"), std::string::npos);
  EXPECT_NE(t.find("COUNT"), std::string::npos);
  EXPECT_NE(t.find("more cells"), std::string::npos);
  EXPECT_GT(c.ByteSize(), 0u);
}

TEST(CuboidSpecTest, CanonicalStringDistinguishesSpecs) {
  CuboidSpec a;
  a.symbols = {"X", "Y"};
  a.dims = {PatternDim{"X", {"p", "p"}, {}, ""},
            PatternDim{"Y", {"p", "p"}, {}, ""}};
  CuboidSpec b = a;
  EXPECT_EQ(a.CanonicalString(), b.CanonicalString());
  b.kind = PatternKind::kSubsequence;
  EXPECT_NE(a.CanonicalString(), b.CanonicalString());
  b = a;
  b.restriction = CellRestriction::kAllMatchedGo;
  EXPECT_NE(a.CanonicalString(), b.CanonicalString());
  b = a;
  b.dims[0].fixed_labels = {"v"};
  EXPECT_NE(a.CanonicalString(), b.CanonicalString());
  b = a;
  b.iceberg_min_count = 3;
  EXPECT_NE(a.CanonicalString(), b.CanonicalString());
  EXPECT_EQ(a.DimIndex("Y"), 1);
  EXPECT_EQ(a.DimIndex("Q"), -1);
}

std::shared_ptr<const SCuboid> MakeCuboidPtr(int tag) {
  std::vector<DimDescriptor> dims = {{"X", {"p", "p"}, true}};
  auto c = std::make_shared<SCuboid>(dims, AggKind::kCount);
  for (int i = 0; i <= tag; ++i) c->Add({static_cast<Code>(i)}, 0);
  return c;
}

TEST(CuboidRepositoryTest, LookupInsertAndLru) {
  CuboidRepository repo(1 << 20);
  EXPECT_EQ(repo.Lookup("a"), nullptr);
  auto a = MakeCuboidPtr(0);
  repo.Insert("a", a, CuboidSpec{}, 0);
  EXPECT_EQ(repo.Lookup("a"), a);
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_GT(repo.bytes_used(), 0u);
  repo.Insert("a", MakeCuboidPtr(1), CuboidSpec{}, 0);  // replace
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_NE(repo.Lookup("a"), a);
  repo.Clear();
  EXPECT_EQ(repo.size(), 0u);
  EXPECT_EQ(repo.bytes_used(), 0u);
}

TEST(CuboidRepositoryTest, EvictsLeastRecentlyUsed) {
  auto one = MakeCuboidPtr(0);
  size_t unit = one->ByteSize();
  CuboidRepository repo(3 * unit + unit / 2);  // fits three small entries
  repo.Insert("a", MakeCuboidPtr(0), CuboidSpec{}, 0);
  repo.Insert("b", MakeCuboidPtr(0), CuboidSpec{}, 0);
  repo.Insert("c", MakeCuboidPtr(0), CuboidSpec{}, 0);
  EXPECT_EQ(repo.size(), 3u);
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_NE(repo.Lookup("a"), nullptr);
  repo.Insert("d", MakeCuboidPtr(0), CuboidSpec{}, 0);
  EXPECT_EQ(repo.Lookup("b"), nullptr);
  EXPECT_NE(repo.Lookup("a"), nullptr);
  EXPECT_NE(repo.Lookup("c"), nullptr);
  EXPECT_NE(repo.Lookup("d"), nullptr);
}

TEST(CuboidRepositoryTest, ZeroCapacityDisablesCaching) {
  CuboidRepository repo(0);
  repo.Insert("a", MakeCuboidPtr(0), CuboidSpec{}, 0);
  EXPECT_EQ(repo.Lookup("a"), nullptr);
  EXPECT_EQ(repo.size(), 0u);
}

}  // namespace
}  // namespace solap
