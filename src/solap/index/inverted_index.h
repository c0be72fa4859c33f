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
  ///
  /// Streaming ingestion (docs/INGESTION.md) grows a cached index through
  /// this same call. Invariant (the watermark): every sid appended after
  /// the index was built is strictly greater than every sid already in it,
  /// because sids only grow and an append only scans newly assigned ones.
  /// So an in-place append lands at the tail of each list, in its last
  /// container or a new one, and the lists stay sorted.
  void AddSid(const PatternKey& key, Sid sid) { lists_[key].Append(sid); }

  const SidList* Find(const PatternKey& key) const {
    auto it = lists_.find(key);
    return it == lists_.end() ? nullptr : &it->second;
  }

  size_t num_lists() const { return lists_.size(); }
  size_t total_entries() const;
  /// Storage footprint: keys plus the bytes the containers actually hold —
  /// this is what index caching charges against the MemoryGovernor.
  size_t ByteSize() const;
  /// Rewrites every list's containers to their smallest representation
  /// (builders call this once after the append phase).
  void NormalizeLists();

 private:
  IndexShape shape_;
  bool complete_;
  std::string constraint_sig_;
  ListMap lists_;
};

}  // namespace solap

#endif  // SOLAP_INDEX_INVERTED_INDEX_H_
