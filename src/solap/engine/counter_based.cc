// Counter-based S-cuboid construction (paper §4.2.1, Fig. 7): scan every
// sequence of every selected group, enumerate the template's occurrences,
// and fold assignments into cuboid cells.
#include <unordered_set>

#include "solap/engine/engine.h"

namespace solap {

Status SOlapEngine::RunCounterBased(QueryContext& ctx) {
  for (size_t gi : ctx.selected_groups) {
    SequenceGroup& group = ctx.groups->groups()[gi];
    TraceSpan group_span(ctx.trace, "cb.group");
    group_span.Count("group", gi);
    SOLAP_ASSIGN_OR_RETURN(
        BoundPattern bp,
        BoundPattern::Bind(&ctx.tmpl, &group, *ctx.groups, hierarchies_,
                           ctx.spec->predicate, ctx.spec->placeholders));
    const Sid n = static_cast<Sid>(group.num_sequences());
    group_span.Count("sequences", n);
    SOLAP_RETURN_NOT_OK(
        CounterScanRange(ctx, group, bp, 0, n, ctx.cuboid, ctx.stats));
  }
  return Status::OK();
}

Status SOlapEngine::CounterScanRange(const QueryContext& ctx,
                                     SequenceGroup& group,
                                     const BoundPattern& bp, Sid begin,
                                     Sid end, SCuboid* cuboid,
                                     ScanStats* stats) const {
  const PatternTemplate& tmpl = ctx.tmpl;
  const size_t n_dims = tmpl.num_dims();
  const CellRestriction restriction = ctx.spec->restriction;
  // Under the left-maximality restrictions a sequence contributes once per
  // distinct instantiation (its *first* occurrence); `seen` tracks the
  // instantiations already assigned for the current sequence.
  std::unordered_set<PatternKey, CodeVecHash> seen;
  PatternKey dim_codes(n_dims);
  for (Sid s = begin; s < end; ++s) {
    // Cancellation/deadline poll every 256 sequences — cheap relative to
    // occurrence enumeration, fine-grained enough for sub-second timeouts.
    if (((s - begin) & 0xFF) == 0) {
      SOLAP_RETURN_NOT_OK(CheckStop(ctx.stop, "counter-based scan"));
    }
    ++stats->sequences_scanned;
    seen.clear();
    bp.ForEachOccurrence(s, [&](const uint32_t* idx) {
      for (size_t d = 0; d < n_dims; ++d) {
        size_t fp = static_cast<size_t>(tmpl.first_position_of(d));
        dim_codes[d] = bp.CodeAt(fp, s, idx[fp]);
      }
      if (restriction == CellRestriction::kAllMatchedGo ||
          seen.insert(dim_codes).second) {
        AddAssignment(ctx, group, bp, dim_codes, s, idx, cuboid);
      }
      return true;
    });
  }
  return Status::OK();
}

}  // namespace solap
