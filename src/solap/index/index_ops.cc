#include "solap/index/index_ops.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "solap/common/failpoint.h"
#include "solap/index/container.h"

namespace solap {

bool WindowHasConstraints(const PatternTemplate& tmpl, size_t offset,
                          size_t len,
                          const std::vector<std::vector<Code>>& fixed_codes) {
  for (size_t j = 0; j < len; ++j) {
    size_t pos = offset + j;
    if (tmpl.FirstPositionInWindow(offset, pos) != pos) return true;
    if (!fixed_codes[tmpl.dim_of(pos)].empty()) return true;
  }
  return false;
}

std::string WindowConstraintSig(
    const PatternTemplate& tmpl, size_t offset, size_t len,
    const std::vector<std::vector<Code>>& fixed_codes) {
  if (!WindowHasConstraints(tmpl, offset, len, fixed_codes)) return "";
  std::string sig;
  for (size_t j = 0; j < len; ++j) {
    size_t pos = offset + j;
    size_t first = tmpl.FirstPositionInWindow(offset, pos);
    sig += "p" + std::to_string(first - offset);
    const std::vector<Code>& allowed = fixed_codes[tmpl.dim_of(pos)];
    if (!allowed.empty() && first == pos) {
      sig += "=[";
      for (Code c : allowed) sig += std::to_string(c) + ";";
      sig += "]";
    }
    sig += ",";
  }
  return sig;
}

bool WindowConsistent(const PatternTemplate& tmpl, size_t offset,
                      const PatternKey& key,
                      const std::vector<std::vector<Code>>& fixed_codes) {
  for (size_t j = 0; j < key.size(); ++j) {
    size_t pos = offset + j;
    size_t first = tmpl.FirstPositionInWindow(offset, pos);
    if (first != pos) {
      if (key[j] != key[first - offset]) return false;
      continue;
    }
    const std::vector<Code>& allowed = fixed_codes[tmpl.dim_of(pos)];
    if (!allowed.empty() &&
        std::find(allowed.begin(), allowed.end(), key[j]) == allowed.end()) {
      return false;
    }
  }
  return true;
}

bool ContainsWindow(const BoundPattern& bp, Sid s, const PatternKey& key,
                    size_t offset) {
  const size_t k = key.size();
  const uint32_t len = bp.group().length(s);
  if (len < k) return false;
  if (bp.tmpl().kind() == PatternKind::kSubstring) {
    for (uint32_t p = 0; p + k <= len; ++p) {
      bool ok = true;
      for (size_t j = 0; j < k; ++j) {
        if (bp.CodeAt(offset + j, s, p + j) != key[j]) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
    return false;
  }
  size_t j = 0;
  for (uint32_t i = 0; i < len && j < k; ++i) {
    if (bp.CodeAt(offset + j, s, i) == key[j]) ++j;
  }
  return j == k;
}

namespace {

// Transient reservation against the engine budget, released when the join
// scope unwinds (including via exceptions).
struct ScratchCharge {
  MemoryGovernor* governor = nullptr;
  size_t bytes = 0;
  ~ScratchCharge() {
    if (governor != nullptr) governor->Release(bytes);
  }
};

// Shared implementation of both join directions. `grow_right` selects which
// operand contributes the new position.
//
// Phases: (1) bucket L2 lists by the shared-position code; (2) walk the
// window-consistent base lists in index order, intersecting container
// lists with per-pair kernel dispatch into reusable scratch buffers, and
// emit each verified list straight into the result. Dense chunks are
// bitmap containers already, so no per-join bitmap encoding pass is
// needed.
Result<std::shared_ptr<InvertedIndex>> JoinExtendImpl(
    const InvertedIndex& base, const InvertedIndex& l2,
    const PatternTemplate& tmpl, size_t offset, const BoundPattern& bp,
    bool grow_right, ScanStats* stats, MemoryGovernor* governor) {
  if (l2.shape().size() != 2) {
    return Status::InvalidArgument("join extension requires a size-2 index, "
                                   "got size " +
                                   std::to_string(l2.shape().size()));
  }
  SOLAP_FAILPOINT("index.join");
  // Reserve the join's working set — the result index is proportional to
  // the inputs — against the engine budget for the duration of the join.
  // A rejected reservation fails the join with ResourceExhausted and the
  // engine re-executes the query on the counter-based path.
  ScratchCharge scratch;
  if (governor != nullptr) {
    SOLAP_FAILPOINT("join.scratch");
    const size_t estimate = base.ByteSize() + l2.ByteSize();
    SOLAP_RETURN_NOT_OK(governor->TryCharge(estimate, "II join scratch"));
    scratch.governor = governor;
    scratch.bytes = estimate;
  }
  const size_t k = base.shape().size();
  const size_t out_len = k + 1;
  IndexShape out_shape = grow_right
                             ? base.shape().ExtendedRight(l2.shape().positions[1])
                             : base.shape().ExtendedLeft(l2.shape().positions[0]);
  out_shape.kind = base.shape().kind;
  const size_t base_win_offset = grow_right ? offset : offset + 1;

  // Bucket the L2 lists by the code on the shared position. Dense chunks
  // of a SidList are bitmap containers already — the one-time encoding the
  // flat representation needed per join is now part of the index itself.
  struct L2Entry {
    Code grown;
    const SidList* list;
  };
  std::unordered_map<Code, std::vector<L2Entry>> by_shared;
  for (const auto& [key2, list2] : l2.lists()) {
    Code shared = grow_right ? key2[0] : key2[1];
    Code grown = grow_right ? key2[1] : key2[0];
    by_shared[shared].push_back(L2Entry{grown, &list2});
  }

  auto out = std::make_shared<InvertedIndex>(out_shape, /*complete=*/false);
  ScanStats local;
  PatternKey out_key(out_len);
  std::vector<Sid> candidates, verified;  // reused across pairs
  // Intersect+verify every (base list, L2 entry) pair, in base-list order.
  for (const auto& [key, blist] : base.lists()) {
    if (!WindowConsistent(tmpl, base_win_offset, key, bp.fixed_codes())) {
      continue;
    }
    Code shared = grow_right ? key.back() : key.front();
    auto it = by_shared.find(shared);
    if (it == by_shared.end()) continue;
    for (const L2Entry& l2e : it->second) {
      if (grow_right) {
        std::copy(key.begin(), key.end(), out_key.begin());
        out_key.back() = l2e.grown;
      } else {
        out_key.front() = l2e.grown;
        std::copy(key.begin(), key.end(), out_key.begin() + 1);
      }
      if (!WindowConsistent(tmpl, offset, out_key, bp.fixed_codes())) {
        continue;
      }
      // Kernel dispatch happens per container pair inside
      // IntersectSidLists; the per-pair tally is folded into the
      // linear/galloping/bitmap counters so EXPLAIN ANALYZE still reports
      // the per-join kernel mix.
      ContainerOpCounts ops;
      IntersectSidLists(blist, *l2e.list, candidates, &ops);
      if (ops.bitmap_ops > 0) {
        ++local.intersections_bitmap;
      } else if (ops.gallop_ops > 0) {
        ++local.intersections_galloping;
      } else {
        ++local.intersections_linear;
      }
      local.container_array_ops += ops.array_ops;
      local.container_bitmap_ops += ops.bitmap_ops;
      local.container_run_ops += ops.run_ops;
      local.container_gallop_ops += ops.gallop_ops;
      ++local.list_intersections;
      if (candidates.empty()) continue;
      // "Scan the database to eliminate invalid entries" (Fig. 15 l. 9).
      verified.clear();
      for (Sid s : candidates) {
        if (ContainsWindow(bp, s, out_key, offset)) verified.push_back(s);
      }
      local.sequences_scanned += candidates.size();
      if (!verified.empty()) {
        out->lists().emplace(out_key, SidList::FromSorted(verified));
      }
    }
  }

  out->set_constraint_sig(
      WindowConstraintSig(tmpl, offset, out_len, bp.fixed_codes()));
  // The join result is complete only if no template constraint filtered the
  // instantiation space and both inputs were themselves complete.
  out->set_complete(out->constraint_sig().empty() && base.complete() &&
                    l2.complete());
  if (stats != nullptr) {
    *stats += local;
    stats->lists_built += out->num_lists();
    stats->index_bytes_built += out->ByteSize();
  }
  return out;
}

}  // namespace

Result<std::shared_ptr<InvertedIndex>> JoinExtendRight(
    const InvertedIndex& left, const InvertedIndex& l2,
    const PatternTemplate& tmpl, size_t offset, const BoundPattern& bp,
    ScanStats* stats, MemoryGovernor* governor) {
  return JoinExtendImpl(left, l2, tmpl, offset, bp, /*grow_right=*/true,
                        stats, governor);
}

Result<std::shared_ptr<InvertedIndex>> JoinExtendLeft(
    const InvertedIndex& right, const InvertedIndex& l2,
    const PatternTemplate& tmpl, size_t offset, const BoundPattern& bp,
    ScanStats* stats, MemoryGovernor* governor) {
  return JoinExtendImpl(right, l2, tmpl, offset, bp, /*grow_right=*/false,
                        stats, governor);
}

Result<std::shared_ptr<InvertedIndex>> RollUpMerge(
    const InvertedIndex& fine, const std::vector<std::vector<Code>>& maps,
    IndexShape coarse_shape, const PatternTemplate* tmpl,
    const std::vector<std::vector<Code>>* fixed_codes, ScanStats* stats) {
  if (!fine.complete()) {
    return Status::InvalidArgument(
        "P-ROLL-UP list merging requires a complete index; template-filtered "
        "indices would lose sequences (paper §4.2.2)");
  }
  if (maps.size() != fine.shape().size() ||
      coarse_shape.size() != fine.shape().size()) {
    return Status::InvalidArgument("roll-up maps must cover every position");
  }
  SOLAP_FAILPOINT("index.rollup");
  auto out = std::make_shared<InvertedIndex>(std::move(coarse_shape),
                                             /*complete=*/true);
  // Group the fine lists by coarse target, then union each target's
  // sources with one k-way container merge (UnionManySidLists) — no flat
  // append + re-sort pass. Targets are keyed in the fine map's iteration
  // order.
  out->lists().reserve(fine.num_lists() / 4 + 1);
  std::unordered_map<PatternKey, size_t, CodeVecHash> slot_of;
  std::vector<SidList*> targets;
  std::vector<std::vector<const SidList*>> sources;
  PatternKey ck;
  for (const auto& [key, list] : fine.lists()) {
    // Map every fine key to its coarse key and apply the slice filter.
    ck = key;
    for (size_t p = 0; p < key.size(); ++p) {
      const std::vector<Code>& map = maps[p];
      if (!map.empty() && key[p] < map.size()) ck[p] = map[key[p]];
    }
    if (tmpl != nullptr && fixed_codes != nullptr &&
        !WindowConsistent(*tmpl, 0, ck, *fixed_codes)) {
      continue;  // outside the sliced subcube
    }
    // unordered_map nodes are stable, so the target pointers survive later
    // insertions.
    auto [it, inserted] = slot_of.try_emplace(ck, targets.size());
    if (inserted) {
      targets.push_back(&out->lists()[ck]);
      sources.emplace_back();
    }
    sources[it->second].push_back(&list);
  }

  // k-way container union per target.
  ContainerOpCounts union_counts;
  for (size_t i = 0; i < targets.size(); ++i) {
    *targets[i] = UnionManySidLists(sources[i], &union_counts);
  }

  if (stats != nullptr) {
    stats->container_array_ops += union_counts.array_ops;
    stats->container_bitmap_ops += union_counts.bitmap_ops;
    stats->container_run_ops += union_counts.run_ops;
    stats->container_gallop_ops += union_counts.gallop_ops;
    stats->lists_built += out->num_lists();
    stats->index_bytes_built += out->ByteSize();
  }
  return out;
}

Result<std::shared_ptr<InvertedIndex>> DrillDownRefine(
    const InvertedIndex& coarse, const std::vector<std::vector<Code>>& maps,
    const BoundPattern& bp_fine, IndexShape fine_shape,
    const std::vector<std::vector<Code>>* coarse_fixed_codes,
    ScanStats* stats) {
  const size_t m = fine_shape.size();
  if (bp_fine.tmpl().num_positions() != m ||
      coarse.shape().size() != m || maps.size() != m) {
    return Status::InvalidArgument(
        "drill-down refinement requires matching index / template lengths");
  }
  SOLAP_FAILPOINT("index.refine");
  auto out = std::make_shared<InvertedIndex>(std::move(fine_shape),
                                             coarse.complete());
  auto map_up = [&](size_t i, Code c) -> Code {
    const std::vector<Code>& map = maps[i];
    return (!map.empty() && c < map.size()) ? map[c] : c;
  };
  // Collect the participating coarse keys (those surviving the slice
  // filter) and the union of their member sids, then scan each sequence
  // exactly once — a sequence typically sits in several coarse lists.
  std::unordered_set<PatternKey, CodeVecHash> keep;
  std::vector<bool> marked(bp_fine.group().num_sequences(), false);
  for (const auto& [coarse_key, list] : coarse.lists()) {
    if (coarse_fixed_codes != nullptr &&
        !WindowConsistent(bp_fine.tmpl(), 0, coarse_key,
                          *coarse_fixed_codes)) {
      continue;  // the slice excludes this coarse cell entirely
    }
    keep.insert(coarse_key);
    list.ForEach([&](Sid s) { marked[s] = true; });
  }
  std::unordered_set<PatternKey, CodeVecHash> seen;  // per-sid dedup
  PatternKey fine_key(m), coarse_key(m);
  for (Sid s = 0; s < marked.size(); ++s) {
    if (!marked[s]) continue;
    if (stats != nullptr) ++stats->sequences_scanned;
    seen.clear();
    bp_fine.ForEachOccurrence(s, [&](const uint32_t* idx) {
      for (size_t i = 0; i < m; ++i) {
        fine_key[i] = bp_fine.CodeAt(i, s, idx[i]);
        coarse_key[i] = map_up(i, fine_key[i]);
      }
      if (keep.contains(coarse_key) && seen.insert(fine_key).second) {
        out->AddSid(fine_key, s);
      }
      return true;
    });
  }
  if (stats != nullptr) {
    stats->lists_built += out->num_lists();
    stats->index_bytes_built += out->ByteSize();
  }
  return out;
}

Result<std::shared_ptr<InvertedIndex>> ExtendByScan(
    const InvertedIndex& base, const PatternTemplate& tmpl, size_t offset,
    bool grow_right, const BoundPattern& bp, ScanStats* stats) {
  SOLAP_FAILPOINT("index.extend_scan");
  const size_t k = base.shape().size();
  const size_t out_len = k + 1;
  // Template positions covered by base / by the result.
  const size_t base_off = grow_right ? offset : offset + 1;
  IndexShape out_shape =
      grow_right
          ? base.shape().ExtendedRight(
                tmpl.dim(tmpl.dim_of(offset + k)).ref)
          : base.shape().ExtendedLeft(tmpl.dim(tmpl.dim_of(offset)).ref);
  out_shape.kind = base.shape().kind;
  auto out = std::make_shared<InvertedIndex>(out_shape, /*complete=*/false);
  out->set_constraint_sig(
      WindowConstraintSig(tmpl, offset, out_len, bp.fixed_codes()));

  const bool substring = tmpl.kind() == PatternKind::kSubstring;
  PatternKey out_key(out_len);
  std::unordered_set<PatternKey, CodeVecHash> seen;  // per-sid dedup
  for (const auto& [key, list] : base.lists()) {
    if (!WindowConsistent(tmpl, base_off, key, bp.fixed_codes())) continue;
    auto scan_sid = [&](Sid s) {
      if (stats != nullptr) ++stats->sequences_scanned;
      seen.clear();
      const uint32_t len = bp.group().length(s);
      if (len < out_len) return;
      auto try_window = [&](const uint32_t* idx) {
        // idx[j] is the in-sequence index of template position offset + j.
        for (size_t j = 0; j < out_len; ++j) {
          size_t bj = grow_right ? j : j - 1;  // index into the base key
          Code c = bp.CodeAt(offset + j, s, idx[j]);
          if ((grow_right && j < k) || (!grow_right && j > 0)) {
            if (c != key[bj]) return;
          }
          out_key[j] = c;
        }
        if (!WindowConsistent(tmpl, offset, out_key, bp.fixed_codes())) {
          return;
        }
        if (seen.insert(out_key).second) out->AddSid(out_key, s);
      };
      if (substring) {
        uint32_t idx[kMaxTemplatePositions];
        for (uint32_t p = 0; p + out_len <= len; ++p) {
          for (size_t j = 0; j < out_len; ++j) {
            idx[j] = p + static_cast<uint32_t>(j);
          }
          try_window(idx);
        }
      } else {
        uint32_t idx[kMaxTemplatePositions];
        auto rec = [&](auto&& self, size_t j, uint32_t start) -> void {
          if (j == out_len) {
            try_window(idx);
            return;
          }
          for (uint32_t i = start; i + (out_len - j) <= len; ++i) {
            idx[j] = i;
            self(self, j + 1, i + 1);
          }
        };
        rec(rec, 0, 0);
      }
    };
    list.ForEach(scan_sid);
  }
  if (stats != nullptr) {
    stats->lists_built += out->num_lists();
    stats->index_bytes_built += out->ByteSize();
  }
  return out;
}

}  // namespace solap
