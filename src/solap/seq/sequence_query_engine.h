// The sequence query engine: S-cuboid formation steps 1-4 (paper §3.2 and
// Fig. 4) — Selection, Clustering, Sequence Formation, Sequence Grouping.
#ifndef SOLAP_SEQ_SEQUENCE_QUERY_ENGINE_H_
#define SOLAP_SEQ_SEQUENCE_QUERY_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "solap/common/status.h"
#include "solap/expr/expr.h"
#include "solap/seq/sequence_group.h"

namespace solap {

/// \brief The sequence-formation half of an S-cuboid specification:
/// WHERE + CLUSTER BY + SEQUENCE BY + SEQUENCE GROUP BY.
struct SequenceSpec {
  /// Step 1 — event selection; nullptr selects everything.
  ExprPtr where;
  /// Step 2 — events sharing these dimension values form a cluster.
  std::vector<LevelRef> cluster_by;
  /// Step 3 — attribute whose order turns a cluster into a sequence.
  std::string sequence_by;
  bool ascending = true;
  /// Step 4 — global dimensions; empty means one single sequence group.
  std::vector<LevelRef> group_by;

  /// Canonical text used as the sequence-cache key.
  std::string CanonicalString() const;
};

/// \brief Row-level retention window applied during step 1, in addition to
/// the spec's WHERE: rows whose int64/timestamp column `col` is below
/// `min_inclusive` are skipped. The engine's EvictBefore (docs/INGESTION.md)
/// installs one so that both fresh formations and incremental extensions
/// see the same logical table.
struct RowFilter {
  int col = -1;  ///< -1 = no filtering
  int64_t min_inclusive = 0;

  bool Keep(const EventTable& table, RowId row) const {
    return col < 0 || table.Int64At(row, col) >= min_inclusive;
  }
};

/// \brief A spec's WHERE split into a time window on the SEQUENCE BY
/// attribute and the rest (DESIGN.md "Derived formations").
///
/// Every row a window conjunct keeps orders on the side of its literal, so
/// within one formed sequence the window keeps one contiguous slice: the
/// windowed formation is the unwindowed one with each sequence sliced.
struct WindowSplit {
  /// The spec with only the residual conjuncts as WHERE: the base
  /// formation every window over it derives from.
  SequenceSpec base;
  /// The top-level conjuncts `<sequence_by> {>=,>,<,<=} <literal>`.
  std::vector<ExprPtr> window;
};

/// The window split of `spec` over `schema`, or nullopt when its formation
/// must be built from the table: no window conjunct, a SEQUENCE BY column
/// that is not int64 or timestamp, or a GROUP BY level that is not also a
/// CLUSTER BY level (a slice's first row could then carry another group
/// key than the whole sequence's).
std::optional<WindowSplit> SplitWindow(const Schema& schema,
                                       const SequenceSpec& spec);

/// One group's appended-sid range within an extended formation.
struct GroupDelta {
  size_t group_idx = 0;
  Sid old_count = 0;  ///< sids >= old_count are the appended tail
};

/// \brief Executes SequenceSpecs against an event table.
///
/// The paper offloads these four steps to "an existing sequence database
/// query engine" and caches the result (Fig. 6); this class is that engine.
class SequenceQueryEngine {
 public:
  explicit SequenceQueryEngine(const HierarchyRegistry* hierarchies)
      : hierarchies_(hierarchies) {}

  /// Runs steps 1-4 and returns the grouped sequences: Extend of an empty
  /// set. `filter` (optional) is the engine's retention window.
  Result<std::shared_ptr<SequenceGroupSet>> Build(
      const EventTable& table, const SequenceSpec& spec,
      const RowFilter* filter = nullptr);

  /// Runs steps 1-4 over table rows [set.formed_rows(), num_rows) and
  /// appends the new sequences at the tails of their groups, in cluster-key
  /// order; groups first seen here go after the existing ones (paper §6).
  /// Appends each touched group's old size to `touched` (optional), in
  /// group order. Returns false, leaving `set` untouched, when a selected
  /// row's cluster key already belongs to a sequence of `set`: its events
  /// would land inside a formed sequence.
  Result<bool> Extend(const EventTable& table, const SequenceSpec& spec,
                      const RowFilter* filter, SequenceGroupSet& set,
                      std::vector<GroupDelta>* touched);

  /// The formation of `spec` derived from `base`, the formation of
  /// split.base over the same table rows: each base sequence is cut to
  /// the slice the window keeps (found by binary search with the window's
  /// own EvalRow), empty sequences and groups are dropped, and base sid
  /// order is kept. From a freshly built base the result equals
  /// Build(table, spec): same groups in the same order, same sids, rows
  /// and formed_rows().
  Result<std::shared_ptr<SequenceGroupSet>> Derive(
      const EventTable& table, const SequenceSpec& spec,
      const WindowSplit& split, SequenceGroupSet& base);

 private:
  const HierarchyRegistry* hierarchies_;
};

}  // namespace solap

#endif  // SOLAP_SEQ_SEQUENCE_QUERY_ENGINE_H_
