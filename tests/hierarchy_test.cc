// Unit tests for concept hierarchies and calendar bucketing.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "solap/hierarchy/concept_hierarchy.h"
#include "solap/seq/dimension.h"

namespace solap {
namespace {

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest() : h_({"station", "district", "region"}) {
    (void)h_.SetParent(0, "Pentagon", "D10");
    (void)h_.SetParent(0, "Clarendon", "D10");
    (void)h_.SetParent(0, "Wheaton", "D20");
    (void)h_.SetParent(1, "D10", "South");
    (void)h_.SetParent(1, "D20", "North");
    dict_.GetOrAdd("Pentagon");   // 0
    dict_.GetOrAdd("Clarendon");  // 1
    dict_.GetOrAdd("Wheaton");    // 2
  }
  ConceptHierarchy h_;
  Dictionary dict_;
};

TEST_F(HierarchyTest, LevelIndexLookup) {
  EXPECT_EQ(h_.LevelIndex("station"), 0);
  EXPECT_EQ(h_.LevelIndex("district"), 1);
  EXPECT_EQ(h_.LevelIndex("region"), 2);
  EXPECT_EQ(h_.LevelIndex("galaxy"), -1);
  EXPECT_EQ(h_.num_levels(), 3u);
}

TEST_F(HierarchyTest, MapBaseCodeRollsUpThroughLevels) {
  Code d_pentagon = h_.MapBaseCode(dict_, 1, 0);
  Code d_clarendon = h_.MapBaseCode(dict_, 1, 1);
  Code d_wheaton = h_.MapBaseCode(dict_, 1, 2);
  EXPECT_EQ(d_pentagon, d_clarendon);  // both D10
  EXPECT_NE(d_pentagon, d_wheaton);
  EXPECT_EQ(h_.LabelOf(dict_, 1, d_pentagon), "D10");
  Code r = h_.MapBaseCode(dict_, 2, 0);
  EXPECT_EQ(h_.LabelOf(dict_, 2, r), "South");
  // Level 0 is the identity.
  EXPECT_EQ(h_.MapBaseCode(dict_, 0, 2), 2u);
}

TEST_F(HierarchyTest, UnmappedValuesRollUpToThemselves) {
  Code newcode = dict_.GetOrAdd("Mystery");
  Code mapped = h_.MapBaseCode(dict_, 1, newcode);
  EXPECT_EQ(h_.LabelOf(dict_, 1, mapped), "Mystery");
}

TEST_F(HierarchyTest, LazyExtensionOnDictionaryGrowth) {
  Code d1 = h_.MapBaseCode(dict_, 1, 0);
  Code glenmont = dict_.GetOrAdd("Glenmont");
  (void)h_.SetParent(0, "Glenmont", "D20");
  // SetParent invalidates the compiled map; remapping still works.
  Code d_glenmont = h_.MapBaseCode(dict_, 1, glenmont);
  EXPECT_EQ(h_.LabelOf(dict_, 1, d_glenmont), "D20");
  EXPECT_EQ(h_.LabelOf(dict_, 1, h_.MapBaseCode(dict_, 1, 0)), "D10");
  (void)d1;
}

TEST_F(HierarchyTest, LevelToLevelTable) {
  std::vector<Code> table = h_.LevelToLevel(dict_, 1, 2);
  Code d10 = h_.MapBaseCode(dict_, 1, 0);
  Code d20 = h_.MapBaseCode(dict_, 1, 2);
  ASSERT_GT(table.size(), std::max(d10, d20));
  EXPECT_EQ(h_.LabelOf(dict_, 2, table[d10]), "South");
  EXPECT_EQ(h_.LabelOf(dict_, 2, table[d20]), "North");
}

TEST_F(HierarchyTest, SetParentRangeChecks) {
  EXPECT_FALSE(h_.SetParent(2, "South", "Earth").ok());
  EXPECT_FALSE(h_.SetParent(-1, "x", "y").ok());
}

// One query resolves slice labels while another's formation compiles the
// hierarchy: every newly seen base value with no declared parent adds a
// value to the level dictionary the lookup reads.
TEST(HierarchyConcurrencyTest, LabelLookupWhileCompiling) {
  constexpr int kValues = 2000;
  auto h = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"station", "district"});
  HierarchyRegistry reg;
  reg.Register("station", h);
  Dictionary base;  // touched by the compiling thread only
  auto district =
      DimensionBinding::MakeForRaw(base, &reg, {"station", "district"});
  ASSERT_TRUE(district.ok());

  std::atomic<bool> done{false};
  std::thread compiler([&] {
    for (int i = 0; i < kValues; ++i) {
      h->MapBaseCode(base, 1, base.GetOrAdd("s" + std::to_string(i)));
    }
    done = true;
  });
  // Unmapped values roll up to themselves, so value i is level code i once
  // compiled, and unknown before.
  size_t wrong = 0;
  do {
    for (int i = 0; i < kValues; i += 7) {
      auto code = district->CodeOfLabel("s" + std::to_string(i));
      if (!code.ok() || (*code != kNullCode && *code != Code(i))) ++wrong;
    }
  } while (!done);
  compiler.join();
  EXPECT_EQ(wrong, 0u);
  for (int i = 0; i < kValues; ++i) {
    EXPECT_EQ(*district->CodeOfLabel("s" + std::to_string(i)), Code(i));
  }
}

TEST(CalendarTest, DayWeekMonthBuckets) {
  int64_t t = MakeTimestamp(2007, 10, 1, 13, 45, 0);
  Code day = CalendarBucket(t, CalendarLevel::kDay);
  EXPECT_EQ(CalendarLabel(day, CalendarLevel::kDay), "2007-10-01");
  // Same bucket for any time that day; different next day.
  EXPECT_EQ(CalendarBucket(MakeTimestamp(2007, 10, 1), CalendarLevel::kDay),
            day);
  EXPECT_EQ(CalendarBucket(MakeTimestamp(2007, 10, 2), CalendarLevel::kDay),
            day + 1);
  // 2007-10-01 is a Monday: it starts a new week bucket.
  Code w_mon = CalendarBucket(MakeTimestamp(2007, 10, 1), CalendarLevel::kWeek);
  Code w_sun = CalendarBucket(MakeTimestamp(2007, 9, 30), CalendarLevel::kWeek);
  Code w_next_sun =
      CalendarBucket(MakeTimestamp(2007, 10, 7), CalendarLevel::kWeek);
  EXPECT_EQ(w_mon + 0, w_next_sun);  // Mon..Sun share a week
  EXPECT_EQ(w_sun + 1, w_mon);
  Code m = CalendarBucket(t, CalendarLevel::kMonth);
  EXPECT_EQ(CalendarLabel(m, CalendarLevel::kMonth), "2007-10");
  EXPECT_EQ(
      CalendarBucket(MakeTimestamp(2007, 11, 1), CalendarLevel::kMonth),
      m + 1);
}

TEST(CalendarTest, MakeTimestampRoundTrips) {
  int64_t t = MakeTimestamp(1970, 1, 1);
  EXPECT_EQ(t, 0);
  EXPECT_EQ(MakeTimestamp(1970, 1, 2), 86400);
  EXPECT_EQ(MakeTimestamp(2000, 2, 29) + 86400, MakeTimestamp(2000, 3, 1));
  EXPECT_EQ(MakeTimestamp(1969, 12, 31), -86400);
}

TEST(CalendarTest, ParseCalendarLevel) {
  ASSERT_TRUE(ParseCalendarLevel("day", "time").ok());
  ASSERT_TRUE(ParseCalendarLevel("time", "time").ok());
  ASSERT_TRUE(ParseCalendarLevel("request-time", "request-time").ok());
  EXPECT_FALSE(ParseCalendarLevel("fortnight", "time").ok());
}

TEST(HierarchyRegistryTest, RegisterAndFind) {
  HierarchyRegistry reg;
  EXPECT_EQ(reg.Find("location"), nullptr);
  auto h = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"a", "b"});
  reg.Register("location", h);
  EXPECT_EQ(reg.Find("location"), h.get());
}

}  // namespace
}  // namespace solap
