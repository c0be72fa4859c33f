// Boolean / comparison expression trees over event attributes.
//
// Two evaluation contexts exist:
//  - row context: the WHERE clause of an S-cuboid specification, evaluated
//    against a single event row ("time >= ... AND time < ...");
//  - match context: the matching predicate of the CUBOID BY clause, whose
//    operands reference event *placeholders* bound to matched positions
//    ("x1.action = 'in' AND y1.action = 'out'", paper §3.2 part 5c).
#ifndef SOLAP_EXPR_EXPR_H_
#define SOLAP_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "solap/common/status.h"
#include "solap/common/types.h"
#include "solap/storage/event_table.h"

namespace solap {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Node kind of an expression tree.
enum class ExprOp {
  kConst,        ///< literal Value
  kColumn,       ///< attribute of the current row
  kPlaceholder,  ///< attribute of a matched event, e.g. x1.action
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
};

/// \brief Immutable expression tree node.
///
/// Build trees with the factory helpers below, then Bind() them against the
/// table schema (and, for matching predicates, the placeholder list) and
/// evaluate the bound copy Bind() returns. No call modifies a tree once it
/// is built, so concurrent executors may share one parsed tree.
class Expr {
 public:
  // --- factories ---------------------------------------------------------
  static ExprPtr Lit(Value v);
  static ExprPtr Col(std::string name);
  /// Placeholder reference `ph.attr` (e.g. "x1", "action").
  static ExprPtr PCol(std::string placeholder, std::string attr);
  static ExprPtr Cmp(ExprOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(ExprOp::kEq, l, r); }
  static ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(ExprOp::kNe, l, r); }
  static ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(ExprOp::kLt, l, r); }
  static ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(ExprOp::kLe, l, r); }
  static ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(ExprOp::kGt, l, r); }
  static ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(ExprOp::kGe, l, r); }
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);

  ExprOp op() const { return op_; }
  const Value& literal() const { return literal_; }
  const std::string& column() const { return column_; }
  const std::string& placeholder() const { return placeholder_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Returns a copy of this tree with column names resolved to indices
  /// against `schema`. For matching predicates, `placeholders` lists the
  /// placeholder names in template position order; for WHERE clauses pass
  /// nullptr (placeholder references then fail to bind).
  Result<ExprPtr> Bind(const Schema& schema,
                       const std::vector<std::string>* placeholders) const;

  /// Row-context evaluation (WHERE), on a tree Bind() returned.
  Value EvalRow(const EventTable& table, RowId row) const;

  /// Match-context evaluation, on a tree Bind() returned: `matched[i]` is
  /// the row bound to template position i (the i-th placeholder).
  Value EvalMatch(const EventTable& table, const RowId* matched) const;

  /// True if any node references a placeholder.
  bool UsesPlaceholders() const;

  /// Canonical text form; part of cuboid-repository cache keys.
  std::string ToString() const;

 private:
  explicit Expr(ExprOp op) : op_(op) {}

  Value EvalImpl(const EventTable& table, RowId row, const RowId* matched) const;

  ExprOp op_;
  Value literal_;
  std::string column_;
  std::string placeholder_;
  std::vector<ExprPtr> children_;
  int col_index_ = -1;  // bound column
  int ph_index_ = -1;   // bound placeholder position
};

}  // namespace solap

#endif  // SOLAP_EXPR_EXPR_H_
