// The S-cuboid: a sparse multidimensional view of sequence data keyed by
// global-dimension codes plus pattern-dimension codes (paper §3.2, Fig. 4).
#ifndef SOLAP_CUBE_CUBOID_H_
#define SOLAP_CUBE_CUBOID_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "solap/common/types.h"
#include "solap/cube/cell.h"
#include "solap/seq/dimension.h"

namespace solap {

/// Descriptor of one cuboid dimension (for display and navigation).
struct DimDescriptor {
  std::string name;  ///< pattern symbol ("X") or attribute name
  LevelRef ref;
  bool is_pattern = false;
};

/// \brief A materialized S-cuboid: sparse cells plus label dictionaries so
/// results can be rendered without the engine.
///
/// Cell keys concatenate global-dimension codes and pattern-dimension codes
/// in dimension order. Cells with no matching sequence are simply absent
/// (their aggregate is the neutral value — paper §6 notes S-cuboid spaces
/// are usually sparse).
class SCuboid {
 public:
  SCuboid(std::vector<DimDescriptor> dims, AggKind agg)
      : dims_(std::move(dims)), agg_(agg) {}

  const std::vector<DimDescriptor>& dims() const { return dims_; }
  AggKind agg() const { return agg_; }
  size_t num_cells() const { return cells_.size(); }

  /// Folds one assignment into the cell at `key`.
  void Add(const CellKey& key, double measure_total) {
    cells_[key].Add(measure_total);
  }
  /// Folds one assignment with no measure content (COUNT queries). The
  /// cell's measure state stays neutral (sum 0, min +inf, max -inf) —
  /// matching the II fast-count fold — so COUNT answers are bit-identical
  /// across the CB, II and ingest-patch paths (cube/partial_codec.h
  /// encodes the full cell state).
  void AddCountOnly(const CellKey& key) { ++cells_[key].count; }
  /// Merges a full cell state (shard gather, partial decode, II fast count).
  void MergeCell(const CellKey& key, const CellValue& v) {
    cells_[key].Merge(v);
  }

  const std::unordered_map<CellKey, CellValue, CodeVecHash>& cells() const {
    return cells_;
  }

  /// Per-dimension label dictionaries (may hold fewer entries than dims()
  /// when trailing dimensions never recorded a label). Read by the shard
  /// wire codec (cube/partial_codec.h).
  const std::vector<std::unordered_map<Code, std::string>>& labels() const {
    return labels_;
  }

  /// Cell state at `key`; absent cells read as the empty aggregate.
  CellValue CellAt(const CellKey& key) const;
  /// Final aggregate value at `key` (0 for absent COUNT cells, etc.).
  double ValueAt(const CellKey& key) const {
    return CellAt(key).Value(agg_);
  }

  /// Records the display label of `code` on dimension `dim` (the engine
  /// calls this as it inserts cells).
  void SetLabel(size_t dim, Code code, std::string label);
  /// Label of `code` on dimension `dim` (falls back to the numeric code).
  std::string LabelOf(size_t dim, Code code) const;

  /// Key of the cell with the largest aggregate value; empty if no cells.
  CellKey ArgMaxCell() const;

  /// Cells sorted by descending value, capped at `limit` (0 = all).
  std::vector<std::pair<CellKey, double>> TopCells(size_t limit) const;

  /// Drops cells whose COUNT is below `min_count` — the iceberg
  /// restriction of paper §6. Returns the number of cells dropped.
  size_t ApplyIceberg(int64_t min_count);

  /// Renders the cuboid as an aligned text table (descending value,
  /// capped at `limit` rows; 0 = all). For examples and debugging.
  std::string ToTable(size_t limit) const;

  /// Renders the cuboid as CSV: one header row naming the dimensions and
  /// the aggregate, then one row per cell (descending value). Labels
  /// containing commas or quotes are quoted.
  std::string ToCsv() const;

  /// Approximate in-memory footprint, used by the repository's LRU budget.
  size_t ByteSize() const;

 private:
  std::vector<DimDescriptor> dims_;
  AggKind agg_;
  std::unordered_map<CellKey, CellValue, CodeVecHash> cells_;
  std::vector<std::unordered_map<Code, std::string>> labels_;
};

}  // namespace solap

#endif  // SOLAP_CUBE_CUBOID_H_
