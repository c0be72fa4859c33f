// Unit tests for the common module: Status/Result, string helpers, stats.
#include <gtest/gtest.h>

#include "solap/common/status.h"
#include "solap/common/stats.h"
#include "solap/common/strings.h"
#include "solap/common/timer.h"
#include "solap/common/types.h"

namespace solap {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad level");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad level");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad level");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
  *r += 1;
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  SOLAP_ASSIGN_OR_RETURN(int h, Half(x));
  SOLAP_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> odd = Quarter(6);  // 6/2 = 3 is odd
  ASSERT_FALSE(odd.ok());
  EXPECT_EQ(odd.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SubString"), "substring");
  EXPECT_TRUE(EqualsIgnoreCase("LEFT-MAXIMALITY", "left-maximality"));
  EXPECT_FALSE(EqualsIgnoreCase("LEFT-MAXIMALITY", "LEFT-MAXIMALITY-DATA"));
}

TEST(StatsTest, AccumulatesAndPrints) {
  ScanStats a, b;
  a.sequences_scanned = 10;
  a.lists_built = 2;
  b.sequences_scanned = 5;
  b.index_bytes_built = 100;
  a += b;
  EXPECT_EQ(a.sequences_scanned, 15u);
  EXPECT_EQ(a.index_bytes_built, 100u);
  EXPECT_NE(a.ToString().find("scanned=15"), std::string::npos);
  a.Clear();
  EXPECT_EQ(a.sequences_scanned, 0u);
}

TEST(StatsTest, TableDrivesMergeAndToStringForEveryField) {
  ScanStats a, b;
  uint64_t v = 1;
  for (const StatsField& f : kStatsFields) {
    a.*f.member = v;
    b.*f.member = 1000 * v;
    ++v;
  }
  a += b;
  const std::string text = a.ToString();
  v = 1;
  for (const StatsField& f : kStatsFields) {
    EXPECT_EQ(a.*f.member, 1001 * v) << f.key;
    EXPECT_NE(text.find(std::string(f.key) + "=" + std::to_string(1001 * v)),
              std::string::npos)
        << f.key << " missing from: " << text;
    ++v;
  }
}

TEST(TypesTest, CodeVecHashDiscriminates) {
  CodeVecHash h;
  EXPECT_NE(h(PatternKey{1, 2}), h(PatternKey{2, 1}));
  EXPECT_EQ(h(PatternKey{1, 2}), h(PatternKey{1, 2}));
  EXPECT_NE(h(PatternKey{}), h(PatternKey{0}));
  // The hash reads elements through data()/size(), so a std::vector with
  // the same contents hashes identically to a PatternKey — heap-spilled
  // and inline keys interoperate in the same map.
  EXPECT_EQ(h(PatternKey{3, 1, 4, 1, 5}), h(std::vector<Code>{3, 1, 4, 1, 5}));
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedMs(), 0.0);
  EXPECT_GE(t.ElapsedSec(), 0.0);
  t.Reset();
  EXPECT_GE(t.ElapsedMs(), 0.0);
}

}  // namespace
}  // namespace solap
