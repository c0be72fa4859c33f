// Dimension bindings: resolve an (attribute, abstraction level) reference to
// concrete code computation against a table column or a raw symbol stream.
#ifndef SOLAP_SEQ_DIMENSION_H_
#define SOLAP_SEQ_DIMENSION_H_

#include <span>
#include <string>

#include "solap/common/status.h"
#include "solap/common/types.h"
#include "solap/hierarchy/concept_hierarchy.h"
#include "solap/storage/event_table.h"

namespace solap {

/// "attr AT level" — how the query language references a dimension at one
/// abstraction level (paper Fig. 3, e.g. `card-id AT fare-group`).
struct LevelRef {
  std::string attr;
  std::string level;

  std::string ToString() const { return attr + "@" + level; }
  bool operator==(const LevelRef&) const = default;
};

/// \brief A LevelRef resolved against a schema and hierarchy registry.
///
/// Provides the three primitives every grouping / matching path needs:
///  - CodeOf(row): level code of a table row;
///  - MapBaseCode(code): base-level code -> level code (string dims), used
///    for raw sequence groups and for index roll-up merging;
///  - Label(code): display string.
class DimensionBinding {
 public:
  /// Binds against a table column. Timestamp columns accept calendar levels
  /// (day/week/month); string columns accept hierarchy levels.
  static Result<DimensionBinding> MakeForTable(const EventTable& table,
                                               const HierarchyRegistry* reg,
                                               const LevelRef& ref);

  /// Binds against a raw symbol stream whose base codes come from
  /// `base_dict`. Only string semantics apply.
  static Result<DimensionBinding> MakeForRaw(const Dictionary& base_dict,
                                             const HierarchyRegistry* reg,
                                             const LevelRef& ref);

  const LevelRef& ref() const { return ref_; }
  bool is_calendar() const { return calendar_; }
  /// Hierarchy level index (string dims; 0 = base).
  int level_index() const { return level_index_; }

  /// Level code of table row `row`. Table-bound bindings only.
  Code CodeOf(const EventTable& table, RowId row) const;

  /// CodeOf for every row of `rows` into `out`, resolving the hierarchy
  /// mapping once: CodeOf takes the shared hierarchy's lock per row, which
  /// concurrent shards then contend on.
  void CodesOf(const EventTable& table, std::span<const RowId> rows,
               Code* out) const;

  /// Maps a base-level code to this binding's level (identity for level 0).
  Code MapBaseCode(Code base_code) const;

  /// Display label of a code at this binding's level.
  std::string Label(Code code) const;

  /// Inverse of Label: resolves a display label to a code at this level.
  /// For string levels the label must already exist in the (level)
  /// dictionary; calendar levels parse "YYYY-MM-DD" (day) or a raw bucket
  /// number. Returns kNullCode when the label names no known value (such a
  /// slice simply matches nothing).
  Result<Code> CodeOfLabel(const std::string& label) const;

  /// Resolves slice/dice `labels`, given at `slice_level`, into the set of
  /// codes *at this binding's level* they cover. When `slice_level` equals
  /// (or is empty for) this level that is a plain label lookup; when it is a
  /// coarser level (a slice taken before a P-DRILL-DOWN), every code rolling
  /// up to a sliced value is allowed.
  Result<std::vector<Code>> AllowedCodes(
      const std::string& slice_level,
      const std::vector<std::string>& labels) const;

 private:
  DimensionBinding() = default;

  LevelRef ref_;
  int col_ = -1;
  bool calendar_ = false;
  CalendarLevel cal_level_ = CalendarLevel::kRaw;
  const Dictionary* base_dict_ = nullptr;  // string dims
  ConceptHierarchy* hierarchy_ = nullptr;  // nullptr for identity level
  int level_index_ = 0;
};

}  // namespace solap

#endif  // SOLAP_SEQ_DIMENSION_H_
