// Inverted indices over sequence groups (paper §4.2.2, Figures 9, 10).
//
// A size-m inverted index L_m maps every concrete length-m pattern (one code
// per position, at a specific attribute/level per position) to the sorted
// list of sids of the group's sequences containing it.
#ifndef SOLAP_INDEX_INVERTED_INDEX_H_
#define SOLAP_INDEX_INVERTED_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "solap/common/types.h"
#include "solap/index/container.h"
#include "solap/seq/dimension.h"
#include "solap/pattern/pattern_template.h"

namespace solap {

/// \brief Identity of an inverted index: pattern kind plus the
/// attribute@level of each of its m positions.
struct IndexShape {
  PatternKind kind = PatternKind::kSubstring;
  std::vector<LevelRef> positions;

  size_t size() const { return positions.size(); }
  std::string CanonicalString() const;
  bool operator==(const IndexShape&) const = default;

  /// Shape extended by one more position on the right / left.
  IndexShape ExtendedRight(const LevelRef& ref) const;
  IndexShape ExtendedLeft(const LevelRef& ref) const;
};

/// \brief The inverted index itself: pattern key -> sorted sid list.
///
/// `complete` distinguishes a full BuildIndex product (lists for *every*
/// pattern occurring in the group) from a join product filtered by template
/// constraints (repeated symbols / sliced dimensions). Only complete indices
/// may be merged by P-ROLL-UP — the paper's §4.2.2 caveat, where merging
/// restricted L4^(X,Y,Y,X) lists at the district level loses sequence s6.
class InvertedIndex {
 public:
  /// Lists are chunked container sets (index/container.h), not flat
  /// vectors: sparse 2^16-sid chunks are sorted u16 arrays, dense chunks
  /// bitmaps, contiguous chunks run intervals.
  using ListMap = std::unordered_map<PatternKey, SidList, CodeVecHash>;

  InvertedIndex(IndexShape shape, bool complete)
      : shape_(std::move(shape)), complete_(complete) {}

  const IndexShape& shape() const { return shape_; }
  bool complete() const { return complete_; }
  void set_complete(bool complete) { complete_ = complete; }
  /// Signature of the template constraints the index was filtered by
  /// (empty for complete indices); part of the cache key.
  const std::string& constraint_sig() const { return constraint_sig_; }
  void set_constraint_sig(std::string sig) {
    constraint_sig_ = std::move(sig);
  }

  ListMap& lists() { return lists_; }
  const ListMap& lists() const { return lists_; }

  /// Appends `sid` to the list of `key`, deduplicating consecutive appends
  /// of the same sid (callers iterate sids in ascending order, so lists
  /// stay sorted).
  void AddSid(const PatternKey& key, Sid sid) { lists_[key].Append(sid); }

  const SidList* Find(const PatternKey& key) const {
    auto it = lists_.find(key);
    return it == lists_.end() ? nullptr : &it->second;
  }

  // -- Delta segment (streaming ingestion, docs/INGESTION.md) ---------------
  //
  // Sids appended after the base was built land in a secondary ListMap, the
  // index's *delta segment*, until the background merge folds them into the
  // base containers. Invariant (the per-index watermark): every delta sid is
  // strictly greater than every base sid of the SAME index, because sids
  // only grow and the delta only ever receives newly assigned ones. The
  // two-segment read path (index_ops.cc, container.cc IntersectSegmented)
  // treats base ⋈ delta as one logical list. Note the watermark says
  // nothing about sids across two DIFFERENT indices — a freshly built
  // index holds new sids in its base while an older one still has them in
  // its delta, so segmented intersection computes all four pairwise terms.

  /// Appends `sid` to the DELTA list of `key`; same ascending-order,
  /// consecutive-dedup contract as AddSid.
  void AddDeltaSid(const PatternKey& key, Sid sid) { delta_[key].Append(sid); }

  const SidList* FindDelta(const PatternKey& key) const {
    auto it = delta_.find(key);
    return it == delta_.end() ? nullptr : &it->second;
  }

  bool has_delta() const { return !delta_.empty(); }
  const ListMap& delta() const { return delta_; }
  /// Bytes held by the delta segment alone (keys + containers).
  size_t DeltaByteSize() const;

  /// Folds the delta segment into the base containers and clears it. Cheap
  /// by the watermark invariant: per key, delta sids append after the
  /// base's maximum, then the touched lists renormalize. Callers hold the
  /// engine's epoch gate exclusively — logical content is unchanged, so
  /// the epoch does not advance.
  void MergeDeltaIntoBase();

  /// Visits the union of base and delta keys, passing whichever segment
  /// lists exist (either pointer may be null, never both). The read-path
  /// primitive for iterating an index's LOGICAL lists.
  template <typename Fn>  // Fn(const PatternKey&, const SidList* base,
                          //    const SidList* delta)
  void ForEachLogicalList(Fn&& fn) const {
    for (const auto& [key, list] : lists_) {
      fn(key, &list, FindDelta(key));
    }
    for (const auto& [key, list] : delta_) {
      if (lists_.find(key) == lists_.end()) fn(key, nullptr, &list);
    }
  }

  size_t num_lists() const { return lists_.size(); }
  size_t total_entries() const;
  /// Storage footprint: keys plus the bytes the containers actually hold,
  /// base and delta segments both — this is what index caching charges
  /// against the MemoryGovernor.
  size_t ByteSize() const;
  /// Rewrites every list's containers to their smallest representation
  /// (builders call this once after the append phase).
  void NormalizeLists();

 private:
  IndexShape shape_;
  bool complete_;
  std::string constraint_sig_;
  ListMap lists_;
  ListMap delta_;
};

}  // namespace solap

#endif  // SOLAP_INDEX_INVERTED_INDEX_H_
