// Inverted-index S-cuboid construction — QueryIndices (paper §4.2.2,
// Fig. 15) plus the index-reuse strategies behind the six S-OLAP
// operations: longest cached prefix/suffix growth for APPEND/PREPEND,
// list merging for P-ROLL-UP, list refinement for P-DRILL-DOWN.
#include "solap/engine/engine.h"
#include "solap/index/build_index.h"
#include "solap/index/index_ops.h"

namespace solap {

namespace {

// Hierarchy level index of `ref` for derivation comparisons; -1 when the
// attribute has no multi-level hierarchy usable here (calendar levels and
// identity-only attributes only ever match exactly).
int LevelIndexOf(const HierarchyRegistry* reg, const LevelRef& ref) {
  ConceptHierarchy* h = reg != nullptr ? reg->Find(ref.attr) : nullptr;
  if (h == nullptr) return -1;
  int idx = h->LevelIndex(ref.level);
  if (idx < 0 && (ref.level == ref.attr || ref.level == "base")) idx = 0;
  return idx;
}

}  // namespace

Status SOlapEngine::RunInvertedIndex(QueryContext& ctx) {
  for (size_t gi : ctx.selected_groups) {
    SequenceGroup& group = ctx.groups->groups()[gi];
    TraceSpan group_span(ctx.trace, "ii.group");
    group_span.Count("group", gi);
    // One binding with the matching predicate (for counting) and one
    // without (for index construction: lists are containment-only).
    SOLAP_ASSIGN_OR_RETURN(
        BoundPattern bp,
        BoundPattern::Bind(&ctx.tmpl, &group, *ctx.groups, hierarchies_,
                           ctx.spec->predicate, ctx.spec->placeholders));
    SOLAP_ASSIGN_OR_RETURN(
        BoundPattern bp_index,
        BoundPattern::Bind(&ctx.tmpl, &group, *ctx.groups, hierarchies_,
                           nullptr, {}));
    std::shared_ptr<GroupIndexCache> cache = CacheFor(*ctx.groups, gi);
    SOLAP_ASSIGN_OR_RETURN(
        std::shared_ptr<InvertedIndex> index,
        ObtainIndex(*cache, group, *ctx.groups, ctx.tmpl, bp_index, ctx.stats,
                    ctx.stop, ctx.trace));
    TraceSpan count_span(ctx.trace, "ii.count");
    count_span.Count("index_lists", index->lists().size());
    count_span.Count("index_entries", index->total_entries());
    SOLAP_RETURN_NOT_OK(CountFromIndex(ctx, group, bp, *index));
  }
  return Status::OK();
}

namespace {

// Attaches the work counted between two ScanStats snapshots to `span`,
// including the per-kernel intersection mix of a join step (zero-valued
// facts are skipped to keep renderings short).
void AttachStatsDelta(TraceSpan& span, const ScanStats& before,
                      const ScanStats& after) {
  if (!span.active()) return;
  auto emit = [&](const char* key, uint64_t b, uint64_t a) {
    if (a > b) span.Count(key, a - b);
  };
  emit("sequences_scanned", before.sequences_scanned, after.sequences_scanned);
  emit("lists_built", before.lists_built, after.lists_built);
  emit("index_bytes", before.index_bytes_built, after.index_bytes_built);
  emit("intersections", before.list_intersections, after.list_intersections);
  emit("linear", before.intersections_linear, after.intersections_linear);
  emit("galloping", before.intersections_galloping,
       after.intersections_galloping);
  emit("bitmap", before.intersections_bitmap, after.intersections_bitmap);
  emit("container_array", before.container_array_ops,
       after.container_array_ops);
  emit("container_bitmap", before.container_bitmap_ops,
       after.container_bitmap_ops);
  emit("container_run", before.container_run_ops, after.container_run_ops);
  emit("container_gallop", before.container_gallop_ops,
       after.container_gallop_ops);
  // The dominant kernel of this step, named explicitly so EXPLAIN ANALYZE
  // readers need not compare the mix counters.
  const uint64_t lin = after.intersections_linear - before.intersections_linear;
  const uint64_t gal =
      after.intersections_galloping - before.intersections_galloping;
  const uint64_t bmp = after.intersections_bitmap - before.intersections_bitmap;
  if (lin + gal + bmp > 0) {
    const char* kernel = lin >= gal && lin >= bmp ? "linear"
                         : gal >= bmp            ? "galloping"
                                                 : "bitmap";
    span.Note("kernel", kernel);
  }
}

}  // namespace

Result<std::shared_ptr<InvertedIndex>> SOlapEngine::ObtainIndex(
    GroupIndexCache& cache, SequenceGroup& group, const SequenceGroupSet& set,
    const PatternTemplate& tmpl, const BoundPattern& bp, ScanStats* stats,
    const StopToken* stop, TraceContext* trace) {
  const size_t m = tmpl.num_positions();
  IndexShape target;
  target.kind = tmpl.kind();
  for (size_t pos = 0; pos < m; ++pos) {
    target.positions.push_back(tmpl.dim(tmpl.dim_of(pos)).ref);
  }
  const std::string full_sig =
      WindowConstraintSig(tmpl, 0, m, bp.fixed_codes());

  // Size-2 index for template window [off, off+2): cached or freshly built
  // (always built complete — maximally reusable).
  auto get_l2 = [&](size_t off) -> Result<std::shared_ptr<InvertedIndex>> {
    IndexShape shape;
    shape.kind = tmpl.kind();
    shape.positions = {target.positions[off], target.positions[off + 1]};
    if (options_.enable_index_cache) {
      if (auto hit = cache.Find(shape, "")) {
        ++stats->index_cache_hits;
        return hit;
      }
    }
    TraceSpan span(trace, "ii.build_index");
    const ScanStats before = span.active() ? *stats : ScanStats{};
    span.Note("shape", shape.CanonicalString());
    SOLAP_ASSIGN_OR_RETURN(
        std::shared_ptr<InvertedIndex> built,
        BuildIndex(&group, set, hierarchies_, shape, stats, &governor_));
    AttachStatsDelta(span, before, *stats);
    if (options_.enable_index_cache) SOLAP_RETURN_NOT_OK(cache.Insert(built));
    return built;
  };

  if (options_.enable_index_cache) {
    // 1. Exact (or complete-superset) cache hit.
    if (auto hit = cache.FindUsable(target, full_sig)) {
      ++stats->index_cache_hits;
      return hit;
    }

    // 2. Derivation from a same-shape index at different abstraction
    //    levels: P-ROLL-UP merges complete finer indices; P-DRILL-DOWN
    //    refines coarser ones by re-scanning their member sequences.
    std::vector<int> target_levels(m);
    for (size_t pos = 0; pos < m; ++pos) {
      target_levels[pos] = LevelIndexOf(hierarchies_, target.positions[pos]);
    }
    std::shared_ptr<InvertedIndex> rollup_src, drill_src;
    for (const auto& entry : cache.entries()) {
      if (entry->shape().kind != target.kind ||
          entry->shape().size() != m) {
        continue;
      }
      bool finer = true, coarser = true, any_diff = false;
      for (size_t pos = 0; pos < m && (finer || coarser); ++pos) {
        const LevelRef& eref = entry->shape().positions[pos];
        const LevelRef& tref = target.positions[pos];
        if (eref == tref) continue;
        any_diff = true;
        int el = LevelIndexOf(hierarchies_, eref);
        int tl = target_levels[pos];
        if (eref.attr != tref.attr || el < 0 || tl < 0) {
          finer = coarser = false;
          break;
        }
        if (el > tl) finer = false;    // entry is coarser here
        if (el < tl) coarser = false;  // entry is finer here
      }
      if (!any_diff) continue;
      if (finer && entry->complete() && rollup_src == nullptr) {
        rollup_src = entry;
      }
      if (coarser && drill_src == nullptr &&
          (entry->complete() ||
           entry->constraint_sig() == full_sig)) {
        drill_src = entry;
      }
    }
    if (rollup_src != nullptr) {
      std::vector<std::vector<Code>> maps(m);
      for (size_t pos = 0; pos < m; ++pos) {
        const LevelRef& eref = rollup_src->shape().positions[pos];
        if (eref == target.positions[pos]) continue;
        SOLAP_ASSIGN_OR_RETURN(
            maps[pos],
            LevelMapFor(set, eref.attr, LevelIndexOf(hierarchies_, eref),
                        target_levels[pos]));
      }
      // Restricted templates merge only their consistent subcube; the
      // result is then filtered (carries the constraint signature).
      const bool filtered = !full_sig.empty();
      TraceSpan span(trace, "ii.rollup_merge");
      const ScanStats before = span.active() ? *stats : ScanStats{};
      span.Note("source", rollup_src->shape().CanonicalString());
      SOLAP_ASSIGN_OR_RETURN(
          std::shared_ptr<InvertedIndex> merged,
          RollUpMerge(*rollup_src, maps, target, filtered ? &tmpl : nullptr,
                      filtered ? &bp.fixed_codes() : nullptr, stats));
      AttachStatsDelta(span, before, *stats);
      if (filtered) {
        merged->set_constraint_sig(full_sig);
        merged->set_complete(false);
      }
      SOLAP_RETURN_NOT_OK(cache.Insert(merged));
      return merged;
    }
    if (drill_src != nullptr) {
      std::vector<std::vector<Code>> maps(m);  // fine (target) -> coarse
      for (size_t pos = 0; pos < m; ++pos) {
        const LevelRef& eref = drill_src->shape().positions[pos];
        if (eref == target.positions[pos]) continue;
        SOLAP_ASSIGN_OR_RETURN(
            maps[pos],
            LevelMapFor(set, eref.attr, target_levels[pos],
                        LevelIndexOf(hierarchies_, eref)));
      }
      // Map the slice/dice restrictions up to the coarse level so that the
      // refinement touches only the sliced coarse lists (paper §5.1: Qb
      // scans just the 2,201 sequences of the sliced cell).
      std::vector<std::vector<Code>> coarse_fixed(tmpl.num_dims());
      bool any_fixed = false;
      for (size_t d = 0; d < tmpl.num_dims(); ++d) {
        const std::vector<Code>& fine_codes = bp.fixed_codes()[d];
        if (fine_codes.empty()) continue;
        any_fixed = true;
        size_t pos = static_cast<size_t>(tmpl.first_position_of(d));
        const std::vector<Code>& map = maps[pos];
        for (Code c : fine_codes) {
          coarse_fixed[d].push_back(
              (!map.empty() && c < map.size()) ? map[c] : c);
        }
      }
      TraceSpan span(trace, "ii.drilldown_refine");
      const ScanStats before = span.active() ? *stats : ScanStats{};
      span.Note("source", drill_src->shape().CanonicalString());
      SOLAP_ASSIGN_OR_RETURN(
          std::shared_ptr<InvertedIndex> refined,
          DrillDownRefine(*drill_src, maps, bp, target,
                          any_fixed ? &coarse_fixed : nullptr, stats));
      AttachStatsDelta(span, before, *stats);
      // The refinement enumerated occurrences through the template, so the
      // result carries the template's constraint signature.
      if (!full_sig.empty()) {
        refined->set_constraint_sig(full_sig);
        refined->set_complete(false);
      }
      SOLAP_RETURN_NOT_OK(cache.Insert(refined));
      return refined;
    }
  }

  // 3. Base cases.
  if (m == 1) {
    IndexShape shape;
    shape.kind = tmpl.kind();
    shape.positions = {target.positions[0]};
    TraceSpan span(trace, "ii.build_index");
    const ScanStats before = span.active() ? *stats : ScanStats{};
    span.Note("shape", shape.CanonicalString());
    SOLAP_ASSIGN_OR_RETURN(
        std::shared_ptr<InvertedIndex> built,
        BuildIndex(&group, set, hierarchies_, shape, stats, &governor_));
    AttachStatsDelta(span, before, *stats);
    if (options_.enable_index_cache) SOLAP_RETURN_NOT_OK(cache.Insert(built));
    return built;
  }

  // 4. Growth from the longest cached prefix or suffix window (Fig. 15
  //    line 8: "where L_i is the largest available inverted index").
  size_t prefix_k = 0, suffix_k = 0;
  std::shared_ptr<InvertedIndex> prefix_idx, suffix_idx;
  if (options_.enable_index_cache) {
    for (size_t k = m - 1; k >= 2 && prefix_k == 0; --k) {
      IndexShape shape;
      shape.kind = tmpl.kind();
      shape.positions.assign(target.positions.begin(),
                             target.positions.begin() + k);
      if (auto hit = cache.FindUsable(
              shape, WindowConstraintSig(tmpl, 0, k, bp.fixed_codes()))) {
        prefix_idx = hit;
        prefix_k = k;
      }
    }
    for (size_t k = m - 1; k >= 2 && suffix_k == 0; --k) {
      IndexShape shape;
      shape.kind = tmpl.kind();
      shape.positions.assign(target.positions.end() - k,
                             target.positions.end());
      if (auto hit = cache.FindUsable(
              shape, WindowConstraintSig(tmpl, m - k, k, bp.fixed_codes()))) {
        suffix_idx = hit;
        suffix_k = k;
      }
    }
  }

  std::shared_ptr<InvertedIndex> current;
  size_t k;
  bool grow_right;
  if (prefix_k == 0 && suffix_k == 0) {
    SOLAP_ASSIGN_OR_RETURN(current, get_l2(0));
    k = 2;
    grow_right = true;
  } else if (prefix_k >= suffix_k) {
    current = prefix_idx;
    k = prefix_k;
    grow_right = true;
    ++stats->index_cache_hits;
  } else {
    current = suffix_idx;
    k = suffix_k;
    grow_right = false;
    ++stats->index_cache_hits;
  }

  while (k < m) {
    // Each growth step scans or joins whole lists — poll between steps so
    // a deadline interrupts multi-step growth of long templates.
    SOLAP_RETURN_NOT_OK(CheckStop(stop, "index growth"));
    // A highly selective base (a sliced iterative follow-up) is cheaper to
    // grow by scanning its own member sequences than by building and
    // joining a complete size-2 index — unless that L2 is already cached.
    const size_t l2_off = grow_right ? k - 1 : m - k - 1;
    bool l2_cached = false;
    if (options_.enable_index_cache) {
      IndexShape l2_shape;
      l2_shape.kind = tmpl.kind();
      l2_shape.positions = {target.positions[l2_off],
                            target.positions[l2_off + 1]};
      l2_cached = cache.Find(l2_shape, "") != nullptr;
    }
    // Scan-extension touches one sequence per *template-consistent*
    // base-list entry (ExtendByScan skips the rest up front), so a sliced
    // query growing from a complete index is still selective; the join
    // path must first scan every sequence to build the missing L2.
    size_t usable_entries = 0;
    {
      const size_t base_off = grow_right ? 0 : m - k;
      current->ForEachLogicalList(
          [&](const PatternKey& key2, const SidList* l2b, const SidList* l2d) {
            if (!WindowConsistent(tmpl, base_off, key2, bp.fixed_codes())) {
              return;
            }
            if (l2b != nullptr) usable_entries += l2b->size();
            if (l2d != nullptr) usable_entries += l2d->size();
          });
    }
    const bool selective = usable_entries < group.num_sequences();
    if (selective && !l2_cached) {
      TraceSpan span(trace, "ii.extend_scan");
      const ScanStats before = span.active() ? *stats : ScanStats{};
      span.Count("step", k);
      span.Count("base_entries", usable_entries);
      SOLAP_ASSIGN_OR_RETURN(
          current, ExtendByScan(*current, tmpl, grow_right ? 0 : m - k - 1,
                                grow_right, bp, stats));
      AttachStatsDelta(span, before, *stats);
    } else if (grow_right) {
      SOLAP_ASSIGN_OR_RETURN(std::shared_ptr<InvertedIndex> l2,
                             get_l2(k - 1));
      TraceSpan span(trace, "ii.join_extend");
      const ScanStats before = span.active() ? *stats : ScanStats{};
      span.Count("step", k);
      span.Note("direction", "right");
      SOLAP_ASSIGN_OR_RETURN(
          current,
          JoinExtendRight(*current, *l2, tmpl, 0, bp, stats, &governor_));
      AttachStatsDelta(span, before, *stats);
    } else {
      const size_t off = m - k - 1;
      SOLAP_ASSIGN_OR_RETURN(std::shared_ptr<InvertedIndex> l2, get_l2(off));
      TraceSpan span(trace, "ii.join_extend");
      const ScanStats before = span.active() ? *stats : ScanStats{};
      span.Count("step", k);
      span.Note("direction", "left");
      SOLAP_ASSIGN_OR_RETURN(
          current,
          JoinExtendLeft(*current, *l2, tmpl, off, bp, stats, &governor_));
      AttachStatsDelta(span, before, *stats);
    }
    ++k;
    if (options_.enable_index_cache) SOLAP_RETURN_NOT_OK(cache.Insert(current));
  }
  return current;
}

Status SOlapEngine::CountFromIndex(QueryContext& ctx, SequenceGroup& group,
                                   const BoundPattern& bp,
                                   const InvertedIndex& index) {
  const PatternTemplate& tmpl = ctx.tmpl;
  const CellRestriction restriction = ctx.spec->restriction;
  // With no matching predicate and COUNT under a left-maximality
  // restriction, list membership alone decides the count: every sequence in
  // a list contains the pattern exactly "at least once".
  const bool fast = !bp.has_predicate() && ctx.spec->agg == AggKind::kCount &&
                    restriction != CellRestriction::kAllMatchedGo;
  Status status = Status::OK();
  index.ForEachLogicalList([&](const PatternKey& key, const SidList* blist,
                               const SidList* dlist) {
    if (!status.ok()) return;
    status = CheckStop(ctx.stop, "index counting");
    if (!status.ok()) return;
    if (!WindowConsistent(tmpl, 0, key, bp.fixed_codes())) return;
    PatternKey dim_codes = tmpl.DimCodesOf(key);
    if (fast) {
      CellKey cell = group.key();
      cell.insert(cell.end(), dim_codes.begin(), dim_codes.end());
      CellValue v;
      v.count = static_cast<int64_t>((blist != nullptr ? blist->size() : 0) +
                                     (dlist != nullptr ? dlist->size() : 0));
      ctx.cuboid->MergeCell(cell, v);
      return;
    }
    auto count_sid = [&](Sid s) {
      ++ctx.stats->sequences_scanned;
      switch (restriction) {
        case CellRestriction::kLeftMaxMatchedGo:
        case CellRestriction::kLeftMaxDataGo:
          bp.ForEachConcreteOccurrence(s, key, /*apply_predicate=*/true,
                                       [&](const uint32_t* idx) {
                                         AddAssignment(ctx, group, bp,
                                                       dim_codes, s, idx,
                                                       ctx.cuboid);
                                         return false;  // first only
                                       });
          break;
        case CellRestriction::kAllMatchedGo:
          bp.ForEachConcreteOccurrence(s, key, /*apply_predicate=*/true,
                                       [&](const uint32_t* idx) {
                                         AddAssignment(ctx, group, bp,
                                                       dim_codes, s, idx,
                                                       ctx.cuboid);
                                         return true;  // every occurrence
                                       });
          break;
      }
    };
    if (blist != nullptr) blist->ForEach(count_sid);
    if (dlist != nullptr) dlist->ForEach(count_sid);
  });
  return status;
}

}  // namespace solap
