// Online index algebra (paper §4.2.2): joining inverted indices to extend
// pattern length (APPEND / PREPEND / QueryIndices growth), merging lists for
// P-ROLL-UP, and refining lists for P-DRILL-DOWN.
#ifndef SOLAP_INDEX_INDEX_OPS_H_
#define SOLAP_INDEX_INDEX_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "solap/common/mem_budget.h"
#include "solap/common/stats.h"
#include "solap/common/status.h"
#include "solap/index/inverted_index.h"
#include "solap/pattern/matcher.h"

namespace solap {

/// True if template window [offset, offset+len) carries constraints that
/// filter the instantiation space: a repeated symbol with both occurrences
/// inside the window, or a sliced/diced dimension occurring in the window.
bool WindowHasConstraints(const PatternTemplate& tmpl, size_t offset,
                          size_t len,
                          const std::vector<std::vector<Code>>& fixed_codes);

/// Constraint signature of a window — equal-position structure plus fixed
/// codes — used to key template-filtered indices in the index cache.
/// Empty string means "no constraints" (the index is complete).
std::string WindowConstraintSig(
    const PatternTemplate& tmpl, size_t offset, size_t len,
    const std::vector<std::vector<Code>>& fixed_codes);

/// True if `key` (length = window length) is a valid instantiation of
/// template window [offset, offset+len): repeated symbols equal, sliced
/// dimensions within their allowed codes.
bool WindowConsistent(const PatternTemplate& tmpl, size_t offset,
                      const PatternKey& key,
                      const std::vector<std::vector<Code>>& fixed_codes);

/// Containment check of a concrete window pattern in sequence `s`, reading
/// symbol codes through `bp` at template positions [offset, offset+|key|).
bool ContainsWindow(const BoundPattern& bp, Sid s, const PatternKey& key,
                    size_t offset);

/// L_{k+1} = L_k ⋈ L_2 (paper Fig. 15 lines 6-9): `left` covers template
/// window [offset, offset+k), `l2` covers [offset+k-1, offset+k+1). Lists
/// are intersected on the shared position, then candidates are verified by
/// scanning the data sequences ("eliminate invalid entries"). Result keys
/// are filtered to instantiations consistent with the grown window.
///
/// Intersections run on the lists' container representation directly
/// (index/container.h): dense chunks are already bitmap-encoded, so each
/// container pair dispatches its kernel by kind.
///
/// When `governor` is set, the join charges an estimate of its scratch
/// (the size of both inputs) against it for its duration; a rejected
/// charge fails the join with ResourceExhausted, which the engine degrades
/// to the CB path.
Result<std::shared_ptr<InvertedIndex>> JoinExtendRight(
    const InvertedIndex& left, const InvertedIndex& l2,
    const PatternTemplate& tmpl, size_t offset, const BoundPattern& bp,
    ScanStats* stats, MemoryGovernor* governor = nullptr);

/// Mirror image for PREPEND: `right` covers [offset+1, offset+1+k), `l2`
/// covers [offset, offset+2); the result covers [offset, offset+1+k).
Result<std::shared_ptr<InvertedIndex>> JoinExtendLeft(
    const InvertedIndex& right, const InvertedIndex& l2,
    const PatternTemplate& tmpl, size_t offset, const BoundPattern& bp,
    ScanStats* stats, MemoryGovernor* governor = nullptr);

/// P-ROLL-UP list merging: unions fine-level lists whose keys coincide
/// after mapping each position through `maps` (empty vector = identity for
/// that position). Only valid on *complete* source indices — the caller
/// enforces the paper's restricted-symbol caveat. When `tmpl` and
/// `fixed_codes` (per-dimension allowed codes at the *coarse* level) are
/// given, only lists whose mapped key is consistent with the template are
/// merged — a sliced P-ROLL-UP then merges just its subcube; the result is
/// template-filtered and the caller must mark it incomplete.
///
/// The merge itself is a k-way container union per coarse key
/// (UnionManySidLists): single-source containers are copied, multi-source
/// ones OR-ed through a bitmap accumulator — no flat append + re-sort.
/// Coarse targets are keyed in the fine index's list order.
Result<std::shared_ptr<InvertedIndex>> RollUpMerge(
    const InvertedIndex& fine, const std::vector<std::vector<Code>>& maps,
    IndexShape coarse_shape, const PatternTemplate* tmpl,
    const std::vector<std::vector<Code>>* fixed_codes, ScanStats* stats);

/// P-DRILL-DOWN list refinement: splits each coarse list into fine-level
/// lists by re-scanning its member sequences. `bp_fine` must be bound to
/// the full fine-level template (no predicate); `maps` maps fine codes up
/// to the coarse level per position. When `coarse_fixed_codes` is non-null
/// (per-dimension allowed codes *at the coarse level*), coarse lists
/// inconsistent with it are skipped entirely — this is what makes a
/// slice + P-DRILL-DOWN scan only the sliced cell's list (paper §5.1,
/// where Qb touches 2,201 of 50,524 sequences).
Result<std::shared_ptr<InvertedIndex>> DrillDownRefine(
    const InvertedIndex& coarse, const std::vector<std::vector<Code>>& maps,
    const BoundPattern& bp_fine, IndexShape fine_shape,
    const std::vector<std::vector<Code>>* coarse_fixed_codes,
    ScanStats* stats);

/// Grows `base` (covering template window [offset_base, offset_base + k))
/// by one position WITHOUT a size-2 index: each base list's member
/// sequences are scanned directly for the extended window's occurrences.
/// This is the engine's choice when the base index is highly selective
/// (a sliced iterative follow-up): the cost is proportional to the base
/// index's entries, not to the group size.
Result<std::shared_ptr<InvertedIndex>> ExtendByScan(
    const InvertedIndex& base, const PatternTemplate& tmpl, size_t offset,
    bool grow_right, const BoundPattern& bp, ScanStats* stats);

}  // namespace solap

#endif  // SOLAP_INDEX_INDEX_OPS_H_
