// Unit tests for expression trees: row-context (WHERE) and match-context
// (matching predicate) evaluation.
#include <gtest/gtest.h>

#include "paper_fixtures.h"
#include "solap/expr/expr.h"

namespace solap {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : table_(testing::Fig8Table()) {}
  std::shared_ptr<EventTable> table_;
};

TEST_F(ExprTest, ColumnEqualsString) {
  ExprPtr e = Expr::Eq(Expr::Col("location"), Expr::Lit(Value::String(
                                                  "Glenmont")));
  auto bound = e->Bind(table_->schema(), nullptr);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE((*bound)->EvalRow(*table_, 0).AsBool());   // s1 at Glenmont
  EXPECT_FALSE((*bound)->EvalRow(*table_, 1).AsBool());  // then Pentagon
}

// Bind returns a bound copy and leaves the tree alone, so one parsed tree
// can be bound against several schemas (or by several executors at once).
TEST_F(ExprTest, BindLeavesTheTreeUntouched) {
  ExprPtr e = Expr::Eq(Expr::Col("location"), Expr::Lit(Value::String(
                                                  "Glenmont")));
  auto bound = e->Bind(table_->schema(), nullptr);
  ASSERT_TRUE(bound.ok());
  EXPECT_NE(*bound, e);
  // A schema that puts "location" at another index binds independently.
  Schema other{std::vector<Field>{
      {"pad", ValueType::kInt64, FieldRole::kDimension},
      {"location", ValueType::kString, FieldRole::kDimension}}};
  ASSERT_TRUE(e->Bind(other, nullptr).ok());
  EXPECT_TRUE((*bound)->EvalRow(*table_, 0).AsBool());
  EXPECT_FALSE((*bound)->EvalRow(*table_, 1).AsBool());
}

TEST_F(ExprTest, TimestampRange) {
  int64_t mid = MakeTimestamp(2007, 12, 25, 8, 2, 0);
  ExprPtr e = Expr::And(
      Expr::Ge(Expr::Col("time"), Expr::Lit(Value::Timestamp(mid))),
      Expr::Lt(Expr::Col("time"),
               Expr::Lit(Value::Timestamp(mid + 120))));
  auto bound = e->Bind(table_->schema(), nullptr);
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE((*bound)->EvalRow(*table_, 0).AsBool());
  EXPECT_TRUE((*bound)->EvalRow(*table_, 2).AsBool());
  EXPECT_TRUE((*bound)->EvalRow(*table_, 3).AsBool());
  EXPECT_FALSE((*bound)->EvalRow(*table_, 4).AsBool());
}

TEST_F(ExprTest, BooleanConnectives) {
  ExprPtr in = Expr::Eq(Expr::Col("action"), Expr::Lit(Value::String("in")));
  ExprPtr out =
      Expr::Eq(Expr::Col("action"), Expr::Lit(Value::String("out")));
  ExprPtr either = Expr::Or(in, out);
  ExprPtr neither = Expr::Not(either);
  auto bound_either = either->Bind(table_->schema(), nullptr);
  auto bound_neither = neither->Bind(table_->schema(), nullptr);
  ASSERT_TRUE(bound_either.ok());
  ASSERT_TRUE(bound_neither.ok());
  EXPECT_TRUE((*bound_either)->EvalRow(*table_, 0).AsBool());
  EXPECT_FALSE((*bound_neither)->EvalRow(*table_, 0).AsBool());
}

TEST_F(ExprTest, ComparisonOperators) {
  auto check = [&](ExprPtr e, bool expect) {
    auto bound = e->Bind(table_->schema(), nullptr);
    ASSERT_TRUE(bound.ok());
    EXPECT_EQ((*bound)->EvalRow(*table_, 0).AsBool(), expect);
  };
  ExprPtr amt = Expr::Col("amount");
  check(Expr::Eq(amt, Expr::Lit(Value::Double(0.0))), true);
  check(Expr::Ne(amt, Expr::Lit(Value::Double(0.0))), false);
  check(Expr::Le(amt, Expr::Lit(Value::Double(0.0))), true);
  check(Expr::Lt(amt, Expr::Lit(Value::Double(0.0))), false);
  check(Expr::Ge(amt, Expr::Lit(Value::Double(-1.0))), true);
  check(Expr::Gt(amt, Expr::Lit(Value::Double(-1.0))), true);
}

TEST_F(ExprTest, PlaceholderEvaluation) {
  // x1.action = "in" AND y1.action = "out" over matched rows (0, 1).
  ExprPtr e = Expr::And(
      Expr::Eq(Expr::PCol("x1", "action"), Expr::Lit(Value::String("in"))),
      Expr::Eq(Expr::PCol("y1", "action"), Expr::Lit(Value::String("out"))));
  std::vector<std::string> placeholders = {"x1", "y1"};
  auto bound = e->Bind(table_->schema(), &placeholders);
  ASSERT_TRUE(bound.ok());
  RowId matched_ok[] = {0, 1};   // in, out
  RowId matched_bad[] = {1, 0};  // out, in
  EXPECT_TRUE((*bound)->EvalMatch(*table_, matched_ok).AsBool());
  EXPECT_FALSE((*bound)->EvalMatch(*table_, matched_bad).AsBool());
}

TEST_F(ExprTest, PlaceholderRejectedOutsidePredicate) {
  ExprPtr e = Expr::Eq(Expr::PCol("x1", "action"),
                       Expr::Lit(Value::String("in")));
  Status s = e->Bind(table_->schema(), nullptr).status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("x1.action"), std::string::npos);
}

TEST_F(ExprTest, UnknownPlaceholderAndColumn) {
  std::vector<std::string> placeholders = {"x1"};
  ExprPtr e1 = Expr::Eq(Expr::PCol("zz", "action"),
                        Expr::Lit(Value::String("in")));
  EXPECT_FALSE(e1->Bind(table_->schema(), &placeholders).ok());
  ExprPtr e2 = Expr::Eq(Expr::Col("nope"), Expr::Lit(Value::Int64(1)));
  EXPECT_FALSE(e2->Bind(table_->schema(), nullptr).ok());
}

TEST_F(ExprTest, UsesPlaceholdersDetection) {
  ExprPtr plain = Expr::Eq(Expr::Col("action"), Expr::Lit(Value::Int64(1)));
  ExprPtr ph = Expr::And(
      plain, Expr::Eq(Expr::PCol("x1", "action"), Expr::Lit(Value::Int64(1))));
  EXPECT_FALSE(plain->UsesPlaceholders());
  EXPECT_TRUE(ph->UsesPlaceholders());
}

TEST_F(ExprTest, ToStringIsCanonical) {
  ExprPtr e = Expr::And(
      Expr::Eq(Expr::PCol("x1", "action"), Expr::Lit(Value::String("in"))),
      Expr::Not(Expr::Lt(Expr::Col("amount"), Expr::Lit(Value::Double(0)))));
  EXPECT_EQ(e->ToString(),
            "((x1.action = \"in\") AND NOT ((amount < 0)))");
}

TEST_F(ExprTest, ShortCircuitSemantics) {
  // AND short-circuits: the right side would fail only if evaluated against
  // a string-vs-number comparison, which safely yields false anyway; here we
  // just verify truth tables.
  ExprPtr t = Expr::Lit(Value::Bool(true));
  ExprPtr f = Expr::Lit(Value::Bool(false));
  Schema empty{std::vector<Field>{}};
  EventTable dummy{empty};
  auto eval = [&](ExprPtr e) {
    return (*e->Bind(empty, nullptr))->EvalRow(dummy, 0).AsBool();
  };
  EXPECT_TRUE(eval(Expr::And(t, t)));
  EXPECT_FALSE(eval(Expr::And(t, f)));
  EXPECT_FALSE(eval(Expr::And(f, t)));
  EXPECT_TRUE(eval(Expr::Or(f, t)));
  EXPECT_TRUE(eval(Expr::Or(t, f)));
  EXPECT_FALSE(eval(Expr::Or(f, f)));
}

}  // namespace
}  // namespace solap
