// BuildIndex (paper Figure 9): offline construction of a complete size-m
// inverted index for one sequence group.
#ifndef SOLAP_INDEX_BUILD_INDEX_H_
#define SOLAP_INDEX_BUILD_INDEX_H_

#include <memory>

#include "solap/common/mem_budget.h"
#include "solap/common/stats.h"
#include "solap/common/status.h"
#include "solap/index/inverted_index.h"
#include "solap/seq/sequence_group.h"

namespace solap {

/// Scans every sequence of `group` and records, for each unique length-m
/// substring (or subsequence) at the shape's abstraction levels, the sids
/// containing it. The result is a *complete* index: it carries no template
/// filtering, so later queries with any symbol structure — and P-ROLL-UP
/// merges — can be derived from it.
/// When `governor` is non-null and carries a finite budget, construction
/// periodically checks that the index under build still fits in the
/// remaining headroom and aborts with ResourceExhausted otherwise (the
/// engine then degrades the query to the counter-based path).
Result<std::shared_ptr<InvertedIndex>> BuildIndex(
    SequenceGroup* group, const SequenceGroupSet& set,
    const HierarchyRegistry* hierarchies, const IndexShape& shape,
    ScanStats* stats, MemoryGovernor* governor = nullptr);

/// Extends `index` with the contents of sequences [from_sid, end of group) —
/// the incremental-update path (paper §6): when a new batch of sequences is
/// appended to a group, only the new sequences are scanned and their sids
/// are appended to the lists in place. Sids grow monotonically (the
/// watermark invariant, inverted_index.h), so each list stays sorted. This
/// is also the streaming-ingestion write path for cached indices.
Status AppendToIndex(InvertedIndex* index, SequenceGroup* group,
                     const SequenceGroupSet& set,
                     const HierarchyRegistry* hierarchies, Sid from_sid,
                     ScanStats* stats, MemoryGovernor* governor = nullptr);

}  // namespace solap

#endif  // SOLAP_INDEX_BUILD_INDEX_H_
