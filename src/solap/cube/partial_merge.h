// Gather-side merge primitives for scatter-gather execution
// (engine/sharded_engine.h): shard-local partial results fold into one
// global result exactly the way Gray's Data Cube frames cube computation —
// independent partial aggregations combined by a distributive merge.
#ifndef SOLAP_CUBE_PARTIAL_MERGE_H_
#define SOLAP_CUBE_PARTIAL_MERGE_H_

#include "solap/common/types.h"
#include "solap/cube/cuboid.h"

namespace solap {

/// \brief Folds every cell of `src` into `dst`.
///
/// CB partials merge as additive counter state (count/sum add, min/max
/// fold — CellValue::Merge); II fast-path partials carry count-only state
/// whose empty min/max merges losslessly, so both strategies gather through
/// the same call. Non-summarizable S-cuboid measures (paper §3: AVG and
/// friends) stay correct because cells hold pattern-occurrence *state*
/// (count + sum), never finalized aggregates — finalization happens at
/// render time via CellValue::Value. Display labels travel with the cells.
///
/// Callers merge shard partials in ascending shard order so the FP sum
/// fold order — and therefore the result — is deterministic.
///
/// Returns the number of cells folded.
size_t MergeCuboidPartials(SCuboid* dst, const SCuboid& src);

}  // namespace solap

#endif  // SOLAP_CUBE_PARTIAL_MERGE_H_
