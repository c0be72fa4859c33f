// Pattern matching against data sequences: binding a PatternTemplate to a
// sequence group and enumerating its occurrences.
#ifndef SOLAP_PATTERN_MATCHER_H_
#define SOLAP_PATTERN_MATCHER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "solap/common/status.h"
#include "solap/common/types.h"
#include "solap/expr/expr.h"
#include "solap/pattern/pattern_template.h"
#include "solap/seq/sequence_group.h"

namespace solap {

/// Maximum supported template length. Far above anything practical — the
/// paper notes users "seldom pose S-OLAP queries with long pattern
/// templates"; this bound lets occurrence buffers live on the stack.
inline constexpr size_t kMaxTemplatePositions = 32;

/// \brief A PatternTemplate bound to one sequence group: symbol views
/// resolved, slice/dice labels translated to codes, predicate bound.
///
/// All matching entry points live here. Occurrences are reported as
/// position-index arrays (indices into the sequence, ascending; contiguous
/// for substring templates).
class BoundPattern {
 public:
  /// Binds `tmpl` against `group`. `predicate` (may be null) is the
  /// matching predicate; `placeholders` names its event placeholders in
  /// template position order (x1, y1, ... — paper §3.2 part 5c) and must
  /// have one entry per template position when a predicate is present.
  static Result<BoundPattern> Bind(const PatternTemplate* tmpl,
                                   SequenceGroup* group,
                                   const SequenceGroupSet& set,
                                   const HierarchyRegistry* reg,
                                   const ExprPtr& predicate,
                                   const std::vector<std::string>& placeholders);

  const PatternTemplate& tmpl() const { return *tmpl_; }
  SequenceGroup& group() const { return *group_; }
  const DimensionBinding& dim_binding(size_t d) const {
    return dim_bindings_[d];
  }
  const std::vector<std::vector<Code>>& fixed_codes() const {
    return fixed_codes_;
  }
  bool has_predicate() const { return predicate_ != nullptr; }

  /// Code of position `pos` at in-sequence index `idx` of sequence `s`.
  Code CodeAt(size_t pos, Sid s, uint32_t idx) const {
    return pos_view_[pos][offsets_[s] + idx];
  }

  /// Evaluates the matching predicate for an occurrence (`idx[i]` is the
  /// in-sequence index matched to template position i). True when there is
  /// no predicate.
  bool EvalPredicate(Sid s, const uint32_t* idx) const;

  /// Enumerates occurrences of the template in sequence `s` that satisfy
  /// symbol-equality, fixed-dim restrictions and the predicate, in
  /// lexicographic position order. `fn(const uint32_t* idx)` receives the
  /// m in-sequence indices and returns false to stop early.
  template <typename Fn>
  void ForEachOccurrence(Sid s, Fn&& fn) const {
    if (tmpl_->kind() == PatternKind::kSubstring) {
      ForEachSubstring(s, std::forward<Fn>(fn));
    } else {
      ForEachSubsequence(s, std::forward<Fn>(fn));
    }
  }

  /// Enumerates occurrences of one *concrete* pattern (per-position codes),
  /// with or without applying the predicate.
  template <typename Fn>
  void ForEachConcreteOccurrence(Sid s, const PatternKey& key,
                                 bool apply_predicate, Fn&& fn) const {
    if (tmpl_->kind() == PatternKind::kSubstring) {
      ForEachConcreteSubstring(s, key, apply_predicate, std::forward<Fn>(fn));
    } else {
      ForEachConcreteSubsequence(s, key, apply_predicate,
                                 std::forward<Fn>(fn));
    }
  }

  /// Containment test for a concrete pattern, ignoring the predicate —
  /// the check used when verifying joined inverted lists.
  bool ContainsConcrete(Sid s, const PatternKey& key) const;

  /// True if some occurrence of `key` satisfies the predicate under the
  /// given cell restriction: for LEFT-MAXIMALITY* semantics occurrences are
  /// still scanned in order and any valid one qualifies the sequence.
  bool HasValidOccurrence(Sid s, const PatternKey& key) const;

 private:
  BoundPattern() = default;

  template <typename Fn>
  void ForEachSubstring(Sid s, Fn&& fn) const;
  template <typename Fn>
  void ForEachSubsequence(Sid s, Fn&& fn) const;
  template <typename Fn>
  void ForEachConcreteSubstring(Sid s, const PatternKey& key,
                                bool apply_predicate, Fn&& fn) const;
  template <typename Fn>
  void ForEachConcreteSubsequence(Sid s, const PatternKey& key,
                                  bool apply_predicate, Fn&& fn) const;

  /// Symbol-equality + fixed-dim check for position `pos` holding `code`,
  /// given already-chosen indices idx[0..pos-1].
  bool PositionOk(Sid s, size_t pos, Code code, const uint32_t* idx) const {
    int d = tmpl_->dim_of(pos);
    size_t fp = static_cast<size_t>(tmpl_->first_position_of(d));
    if (fp < pos) {
      return CodeAt(fp, s, idx[fp]) == code;
    }
    const std::vector<Code>& allowed = fixed_codes_[d];
    if (!allowed.empty()) {
      for (Code c : allowed) {
        if (c == code) return true;
      }
      return false;
    }
    return true;
  }

  const PatternTemplate* tmpl_ = nullptr;
  SequenceGroup* group_ = nullptr;
  std::vector<DimensionBinding> dim_bindings_;
  std::vector<const Code*> pos_view_;          // per position
  std::vector<std::vector<Code>> fixed_codes_;  // per dim (empty = free)
  const uint32_t* offsets_ = nullptr;
  ExprPtr predicate_;  // bound copy of the matching predicate
};

// ---------------------------------------------------------------------------
// Template implementations.

template <typename Fn>
void BoundPattern::ForEachSubstring(Sid s, Fn&& fn) const {
  const size_t m = tmpl_->num_positions();
  const uint32_t len = group_->length(s);
  if (len < m) return;
  uint32_t idx[kMaxTemplatePositions] = {0};
  for (uint32_t p = 0; p + m <= len; ++p) {
    bool ok = true;
    for (size_t i = 0; i < m; ++i) {
      idx[i] = p + static_cast<uint32_t>(i);
      Code c = CodeAt(i, s, idx[i]);
      if (!PositionOk(s, i, c, idx)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    if (!EvalPredicate(s, idx)) continue;
    if (!fn(static_cast<const uint32_t*>(idx))) return;
  }
}

template <typename Fn>
void BoundPattern::ForEachSubsequence(Sid s, Fn&& fn) const {
  const size_t m = tmpl_->num_positions();
  const uint32_t len = group_->length(s);
  if (len < m) return;
  uint32_t idx[kMaxTemplatePositions] = {0};
  bool stop = false;
  // Depth-first enumeration of ascending index tuples with early pruning on
  // symbol-equality / fixed-dim violations.
  auto rec = [&](auto&& self, size_t pos, uint32_t start) -> void {
    if (stop) return;
    if (pos == m) {
      if (EvalPredicate(s, idx)) {
        if (!fn(static_cast<const uint32_t*>(idx))) stop = true;
      }
      return;
    }
    for (uint32_t i = start; i + (m - pos) <= len && !stop; ++i) {
      Code c = CodeAt(pos, s, i);
      if (!PositionOk(s, pos, c, idx)) continue;
      idx[pos] = i;
      self(self, pos + 1, i + 1);
    }
  };
  rec(rec, 0, 0);
}

template <typename Fn>
void BoundPattern::ForEachConcreteSubstring(Sid s, const PatternKey& key,
                                            bool apply_predicate,
                                            Fn&& fn) const {
  const size_t m = tmpl_->num_positions();
  const uint32_t len = group_->length(s);
  if (len < m) return;
  uint32_t idx[kMaxTemplatePositions] = {0};
  for (uint32_t p = 0; p + m <= len; ++p) {
    bool ok = true;
    for (size_t i = 0; i < m; ++i) {
      if (CodeAt(i, s, p + i) != key[i]) {
        ok = false;
        break;
      }
      idx[i] = p + static_cast<uint32_t>(i);
    }
    if (!ok) continue;
    if (apply_predicate && !EvalPredicate(s, idx)) continue;
    if (!fn(static_cast<const uint32_t*>(idx))) return;
  }
}

template <typename Fn>
void BoundPattern::ForEachConcreteSubsequence(Sid s, const PatternKey& key,
                                              bool apply_predicate,
                                              Fn&& fn) const {
  const size_t m = tmpl_->num_positions();
  const uint32_t len = group_->length(s);
  if (len < m) return;
  uint32_t idx[kMaxTemplatePositions] = {0};
  bool stop = false;
  auto rec = [&](auto&& self, size_t pos, uint32_t start) -> void {
    if (stop) return;
    if (pos == m) {
      if (!apply_predicate || EvalPredicate(s, idx)) {
        if (!fn(static_cast<const uint32_t*>(idx))) stop = true;
      }
      return;
    }
    for (uint32_t i = start; i + (m - pos) <= len && !stop; ++i) {
      if (CodeAt(pos, s, i) != key[pos]) continue;
      idx[pos] = i;
      self(self, pos + 1, i + 1);
    }
  };
  rec(rec, 0, 0);
}

}  // namespace solap

#endif  // SOLAP_PATTERN_MATCHER_H_
