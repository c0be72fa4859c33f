#include "solap/index/build_index.h"

#include <algorithm>
#include <unordered_set>

#include "solap/common/failpoint.h"

namespace solap {

namespace {

// Per-sequence window dedup. A sequence of mean length L yields at most
// L - m + 1 substring windows — typically a handful — so a linear scan
// over a small flat vector beats a node-allocating hash set (the
// per-window set insert dominated QA1's index build); long sequences and
// subsequence DFS enumeration fall back to the set.
class WindowDeduper {
 public:
  void Reset() {
    small_.clear();
    if (use_big_) {
      big_.clear();
      use_big_ = false;
    }
  }

  // True when `key` was not seen since the last Reset.
  bool Insert(const PatternKey& key) {
    if (!use_big_) {
      if (std::find(small_.begin(), small_.end(), key) != small_.end()) {
        return false;
      }
      if (small_.size() < kLinearMax) {
        small_.push_back(key);
        return true;
      }
      use_big_ = true;
      big_.insert(small_.begin(), small_.end());
    }
    return big_.insert(key).second;
  }

 private:
  // Past this many distinct windows the linear scan loses to hashing.
  static constexpr size_t kLinearMax = 24;
  std::vector<PatternKey> small_;  // keeps capacity across Reset
  std::unordered_set<PatternKey, CodeVecHash> big_;
  bool use_big_ = false;
};

}  // namespace

Status AppendToIndex(InvertedIndex* index, SequenceGroup* group,
                     const SequenceGroupSet& set,
                     const HierarchyRegistry* hierarchies, Sid from_sid,
                     ScanStats* stats, MemoryGovernor* governor) {
  SOLAP_FAILPOINT("index.build");
  const IndexShape& shape = index->shape();
  const size_t m = shape.size();
  if (m == 0) {
    return Status::InvalidArgument("index shape must have at least one "
                                   "position");
  }
  // Bind one view per distinct attribute/level; positions share views.
  std::vector<const Code*> pos_view(m);
  {
    std::unordered_map<std::string, const std::vector<Code>*> by_ref;
    for (size_t i = 0; i < m; ++i) {
      const LevelRef& ref = shape.positions[i];
      auto it = by_ref.find(ref.ToString());
      if (it == by_ref.end()) {
        SOLAP_ASSIGN_OR_RETURN(DimensionBinding b,
                               set.BindDimension(hierarchies, ref));
        it = by_ref.emplace(ref.ToString(), &group->ViewFor(b)).first;
      }
      pos_view[i] = it->second->data();
    }
  }

  const std::vector<uint32_t>& offsets = group->offsets();
  const size_t num_seq = group->num_sequences();
  WindowDeduper seen;  // per-sequence dedup
  PatternKey key(m);

  // Abort the scan early when the index under construction can no longer
  // fit in the remaining budget; the cache-insert TryCharge is the
  // authoritative check, this one just bounds peak usage during the build.
  const bool budgeted = governor != nullptr && governor->budget() != 0;

  for (Sid s = from_sid; s < num_seq; ++s) {
    if (budgeted && ((s - from_sid) & 0x3FF) == 0x3FF) {
      // Probe-charge the index built so far: a failure aborts the scan
      // (counting a budget reject), a success is released immediately —
      // the cache insert makes the lasting reservation.
      const size_t bytes = index->ByteSize();
      SOLAP_RETURN_NOT_OK(governor->TryCharge(bytes, "index build"));
      governor->Release(bytes);
    }
    const uint32_t base = offsets[s];
    const uint32_t len = offsets[s + 1] - base;
    if (len < m) continue;
    seen.Reset();
    if (shape.kind == PatternKind::kSubstring) {
      for (uint32_t p = 0; p + m <= len; ++p) {
        for (size_t i = 0; i < m; ++i) key[i] = pos_view[i][base + p + i];
        if (seen.Insert(key)) index->AddSid(key, s);
      }
    } else {
      // Depth-first enumeration of unique length-m subsequences.
      auto rec = [&](auto&& self, size_t pos, uint32_t start) -> void {
        if (pos == m) {
          if (seen.Insert(key)) index->AddSid(key, s);
          return;
        }
        for (uint32_t i = start; i + (m - pos) <= len; ++i) {
          key[pos] = pos_view[pos][base + i];
          self(self, pos + 1, i + 1);
        }
      };
      rec(rec, 0, 0);
    }
  }
  // Shrink every touched list to its smallest container representation —
  // incremental appends may have left array tails on otherwise dense
  // chunks.
  index->NormalizeLists();
  if (stats != nullptr) {
    stats->sequences_scanned += num_seq - from_sid;
  }
  return Status::OK();
}

Result<std::shared_ptr<InvertedIndex>> BuildIndex(
    SequenceGroup* group, const SequenceGroupSet& set,
    const HierarchyRegistry* hierarchies, const IndexShape& shape,
    ScanStats* stats, MemoryGovernor* governor) {
  auto index = std::make_shared<InvertedIndex>(shape, /*complete=*/true);
  SOLAP_RETURN_NOT_OK(
      AppendToIndex(index.get(), group, set, hierarchies, 0, stats, governor));
  if (stats != nullptr) {
    stats->lists_built += index->num_lists();
    stats->index_bytes_built += index->ByteSize();
  }
  return index;
}

}  // namespace solap
