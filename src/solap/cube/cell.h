// Cuboid cell values and aggregate functions (paper §3.2 part 6).
#ifndef SOLAP_CUBE_CELL_H_
#define SOLAP_CUBE_CELL_H_

#include <cstdint>
#include <limits>
#include <string>

namespace solap {

/// Aggregate function of an S-cuboid. COUNT counts assigned contents
/// (matched substrings/subsequences, or whole sequences under the data-go
/// restriction); the others aggregate the per-assignment sum of a measure
/// attribute over the assigned content's events.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

const char* AggKindName(AggKind kind);

/// \brief Running aggregate state of one cuboid cell.
struct CellValue {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// Folds in one assignment whose content's measure total is `v`
  /// (0 for COUNT-only queries).
  void Add(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  /// Merges another cell's state (shard gather, partial decode, II fast count).
  void Merge(const CellValue& o) {
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }

  /// Final value under `kind` (AVG = sum / count).
  double Value(AggKind kind) const;
};

}  // namespace solap

#endif  // SOLAP_CUBE_CELL_H_
