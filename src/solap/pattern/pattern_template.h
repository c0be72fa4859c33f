// Pattern templates, pattern dimensions and cell restrictions —
// the CUBOID BY clause of an S-cuboid specification (paper §3.2 part 5).
#ifndef SOLAP_PATTERN_PATTERN_TEMPLATE_H_
#define SOLAP_PATTERN_PATTERN_TEMPLATE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "solap/common/status.h"
#include "solap/common/types.h"
#include "solap/seq/dimension.h"

namespace solap {

/// SUBSTRING patterns match contiguous runs; SUBSEQUENCE patterns match
/// order-preserving (possibly gapped) selections.
enum class PatternKind { kSubstring, kSubsequence };

/// How a data sequence with multiple occurrences of a cell's pattern is
/// assigned to the cell (paper §3.2 part 5b).
enum class CellRestriction {
  /// Only the first matched substring/subsequence is assigned.
  kLeftMaxMatchedGo,
  /// The whole data sequence is assigned (affects SUM-like aggregates;
  /// COUNT still contributes 1 per sequence).
  kLeftMaxDataGo,
  /// Every matched occurrence is assigned.
  kAllMatchedGo,
};

const char* PatternKindName(PatternKind kind);
const char* CellRestrictionName(CellRestriction r);

/// \brief One pattern dimension: a distinct symbol of the template with its
/// value domain (attribute at an abstraction level) and optional slice/dice
/// restriction to specific values.
struct PatternDim {
  std::string symbol;  ///< e.g. "X"
  LevelRef ref;        ///< e.g. location AT station
  /// Slice (one label) or dice (several) restriction; empty = unrestricted.
  std::vector<std::string> fixed_labels;
  /// Level the fixed labels are expressed at; empty means `ref.level`.
  /// A coarser fixed level arises when a slice precedes a P-DRILL-DOWN on
  /// the same dimension: the slice keeps its original level and restricts
  /// the drilled-down domain to the values rolling up into it.
  std::string fixed_level;

  bool restricted() const { return !fixed_labels.empty(); }
};

/// \brief A pattern template: an ordered list of m symbols drawn from n
/// distinct pattern dimensions (n <= m); e.g. SUBSTRING(X, Y, Y, X).
///
/// Repeated symbols must be instantiated with equal values, which is what
/// distinguishes (Pentagon,Wheaton,Wheaton,Pentagon) — an instantiation of
/// (X,Y,Y,X) — from (Pentagon,Wheaton,Glenmont,Pentagon), which is not.
class PatternTemplate {
 public:
  /// Empty template; invalid until assigned from Make(). Exists so that
  /// owning structs can be default-constructed.
  PatternTemplate() = default;

  /// `symbols[i]` names the dimension of template position i; every symbol
  /// must appear in `dims` exactly once.
  static Result<PatternTemplate> Make(PatternKind kind,
                                      std::vector<std::string> symbols,
                                      std::vector<PatternDim> dims);

  PatternKind kind() const { return kind_; }
  /// m — number of template positions (pattern symbols).
  size_t num_positions() const { return dim_of_.size(); }
  /// n — number of distinct pattern dimensions.
  size_t num_dims() const { return dims_.size(); }

  /// Dimension index of template position `pos`.
  int dim_of(size_t pos) const { return dim_of_[pos]; }
  const PatternDim& dim(size_t d) const { return dims_[d]; }
  const std::vector<PatternDim>& dims() const { return dims_; }
  /// First template position where dimension `d` occurs.
  int first_position_of(size_t d) const { return first_pos_[d]; }
  /// All template positions of dimension `d`, ascending.
  const std::vector<uint32_t>& positions_of(size_t d) const {
    return positions_of_dim_[d];
  }

  /// First position in window [offset, pos) sharing `pos`'s dimension, or
  /// `pos` itself when none exists. Precomputed per-dimension position
  /// lists make this O(log m) instead of the O(m) rescan the window
  /// consistency checks previously paid per position per key.
  size_t FirstPositionInWindow(size_t offset, size_t pos) const {
    const std::vector<uint32_t>& occ = positions_of_dim_[dim_of_[pos]];
    auto it = std::lower_bound(occ.begin(), occ.end(),
                               static_cast<uint32_t>(offset));
    return *it < pos ? *it : pos;  // occ contains pos, so it != end()
  }

  /// True if any dimension occurs at more than one position.
  bool HasRepeatedSymbols() const;
  /// True if any dimension carries a slice/dice restriction.
  bool HasRestrictedDims() const;

  /// Converts a per-position concrete pattern key into per-dimension cell
  /// coordinates (reads each dimension's first position).
  PatternKey DimCodesOf(const PatternKey& position_key) const;

  /// Canonical text, e.g. "SUBSTRING(X@location@station,Y@...)"; feeds the
  /// cuboid-repository key.
  std::string CanonicalString() const;

 private:
  PatternKind kind_ = PatternKind::kSubstring;
  std::vector<std::string> symbols_;
  std::vector<PatternDim> dims_;
  std::vector<int> dim_of_;
  std::vector<int> first_pos_;
  std::vector<std::vector<uint32_t>> positions_of_dim_;  // per dim, ascending
};

}  // namespace solap

#endif  // SOLAP_PATTERN_PATTERN_TEMPLATE_H_
