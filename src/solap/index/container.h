// Chunked container representation for posting lists (ROADMAP item 2).
//
// A SidList partitions its sorted sid set into one container per 2^16 sid
// range (the Roaring layout, cf. the Lemire & Boytsov SIMD intersection
// study in PAPERS.md): sparse chunks store sorted 16-bit lows in an array
// container, dense chunks a 1024-word bitmap (auto-converting at the
// classic 4096-element crossover), and contiguous chunks a run container of
// [start, last] interval pairs. Intersection walks the two container
// vectors key-aligned — whole 65536-sid chunks present on only one side
// are skipped without touching their payload — and dispatches a kernel per
// container pair (SSE4.2 STTNI for balanced array×array, galloping for
// skewed ones, word-parallel AND for bitmap×bitmap, membership probes for
// mixed pairs, interval walks when a run participates). This dispatch
// table is the only intersection-kernel family: index joins and the
// benches go through it. Roll-up union is a k-way merge into a per-chunk
// bitmap accumulator. Both produce exactly the sid sets of the scalar
// merge path, which the equivalence tests pin. Lists only grow at the
// tail: streaming ingestion appends sids larger than every member in
// place (SidList::Append into the last container or a new one).
#ifndef SOLAP_INDEX_CONTAINER_H_
#define SOLAP_INDEX_CONTAINER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "solap/common/types.h"

namespace solap {

/// Sids per container: each container covers one [key << 16, key << 16 + 2^16) range.
inline constexpr uint32_t kContainerSpan = 1u << 16;
/// Array containers hold at most this many lows; the next append converts
/// to a bitmap (2 bytes/entry vs a fixed 8 KiB — the break-even point).
inline constexpr uint32_t kArrayBitmapCrossover = 4096;
/// 64-bit words in a bitmap container.
inline constexpr size_t kContainerWords = kContainerSpan / 64;
/// Cardinality ratio (larger/smaller) from which an array×array pair
/// gallops instead of merging: the merge reads |a|+|b| lows, galloping
/// ~|small|·log(|large|/|small|). The comparison is multiplicative
/// (small·ratio <= large), so e.g. 100 vs 1599 still merges — integer
/// division used to round 15.99 down and flip balanced pairs.
inline constexpr size_t kGallopSizeRatio = 16;

/// Runtime check behind the SSE4.2 STTNI array kernel (false off x86 or
/// without the SOLAP_X86_DISPATCH probe; the scalar merge runs then).
bool CpuHasSse42();

/// One chunk of a SidList: the sids in [key << 16, (key + 1) << 16).
struct SidContainer {
  enum class Kind : uint8_t { kArray = 0, kBitmap = 1, kRun = 2 };

  uint16_t key = 0;          ///< sid >> 16 of every member
  Kind kind = Kind::kArray;
  uint32_t cardinality = 0;  ///< member count (maintained by all mutators)
  /// kArray: sorted distinct lows. kRun: flattened sorted disjoint
  /// [start, last] (inclusive) pairs. Unused for kBitmap.
  std::vector<uint16_t> values;
  /// kBitmap: exactly kContainerWords words. Unused otherwise.
  std::vector<uint64_t> words;

  /// Heap + struct bytes actually held (capacities, not sizes) — what the
  /// MemoryGovernor is charged.
  size_t ByteSize() const;
  bool Contains(uint16_t low) const;
  /// Appends `low`, which must be > every current member (builders feed
  /// strictly ascending, deduplicated lows). Converts kArray -> kBitmap at
  /// the crossover; extends the last run in place for kRun.
  void AppendLow(uint16_t low);
  /// Largest member low. Undefined on an empty container.
  uint16_t LastLow() const;
  /// Rewrites to the smallest of the three representations (ties break
  /// array < run < bitmap, so the choice is deterministic regardless of
  /// the current kind).
  void Normalize();
  void ConvertToBitmap();

  /// Calls fn(uint16_t low) for every member in ascending order.
  template <typename Fn>
  void ForEachLow(Fn&& fn) const {
    switch (kind) {
      case Kind::kArray:
        for (uint16_t v : values) fn(v);
        return;
      case Kind::kBitmap:
        for (size_t wi = 0; wi < words.size(); ++wi) {
          uint64_t w = words[wi];
          while (w != 0) {
            fn(static_cast<uint16_t>(wi * 64 +
                                     static_cast<size_t>(__builtin_ctzll(w))));
            w &= w - 1;
          }
        }
        return;
      case Kind::kRun:
        for (size_t i = 0; i + 1 < values.size(); i += 2) {
          // uint32 loop index: last may be 65535 and ++v would wrap.
          for (uint32_t v = values[i]; v <= values[i + 1]; ++v) {
            fn(static_cast<uint16_t>(v));
          }
        }
        return;
    }
  }
};

/// Per-intersection (or union) tally of which container-pair kernels ran;
/// flows into ScanStats / the ii_container_* service counters.
struct ContainerOpCounts {
  uint64_t array_ops = 0;   ///< array×array merges (STTNI or scalar)
  uint64_t bitmap_ops = 0;  ///< pairs where a bitmap container participated
  uint64_t run_ops = 0;     ///< pairs where a run container participated
  uint64_t gallop_ops = 0;  ///< skewed array×array pairs galloped instead

  ContainerOpCounts& operator+=(const ContainerOpCounts& o) {
    array_ops += o.array_ops;
    bitmap_ops += o.bitmap_ops;
    run_ops += o.run_ops;
    gallop_ops += o.gallop_ops;
    return *this;
  }
};

/// A sorted deduplicated sid set stored as key-ordered containers. This is
/// the native posting-list type of InvertedIndex.
class SidList {
 public:
  SidList() = default;

  /// Appends `sid`, ignoring a repeat of the immediately preceding append
  /// (the same consecutive-dedup contract the flat-vector AddSid had).
  /// Callers append in ascending order.
  void Append(Sid sid) {
    if (has_last_ && sid == last_) return;
    has_last_ = true;
    last_ = sid;
    const uint16_t key = static_cast<uint16_t>(sid >> 16);
    if (containers_.empty() || containers_.back().key != key) {
      containers_.emplace_back();
      containers_.back().key = key;
    }
    containers_.back().AppendLow(static_cast<uint16_t>(sid & 0xffff));
    ++size_;
  }

  /// Builds a list from an already-sorted deduplicated sid span and
  /// normalizes every container to its smallest representation.
  static SidList FromSorted(std::span<const Sid> sids);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Actual bytes held (container payload capacities + structs).
  size_t ByteSize() const;
  bool Contains(Sid sid) const;
  /// Normalizes every container (array/bitmap/run, whichever is smallest).
  void Normalize();

  const std::vector<SidContainer>& containers() const { return containers_; }
  std::vector<SidContainer>& containers() { return containers_; }
  /// Recomputes the cached size/last-sid after direct container
  /// manipulation (snapshot load).
  void RecomputeMeta();

  /// Calls fn(Sid) for every member in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const SidContainer& c : containers_) {
      const Sid base = static_cast<Sid>(c.key) << 16;
      c.ForEachLow([&](uint16_t low) { fn(base | low); });
    }
  }

  std::vector<Sid> ToVector() const;

  /// Ascending decoder over the list; the scalar merge baseline and the
  /// equality helpers are built on it.
  class Cursor {
   public:
    explicit Cursor(const SidList& list) : list_(&list) { SkipToValid(0); }
    bool valid() const { return ci_ < list_->containers_.size(); }
    Sid value() const { return value_; }
    void Next();

   private:
    void SkipToValid(size_t ci);
    bool LoadWithin();  // positions value_ at the current in-container state

    const SidList* list_;
    size_t ci_ = 0;
    size_t vi_ = 0;       // array index / run pair index
    uint32_t off_ = 0;    // offset inside the current run
    size_t wi_ = 0;       // bitmap word index
    uint64_t word_ = 0;   // remaining bits of words[wi_]
    Sid value_ = 0;
  };
  Cursor cursor() const { return Cursor(*this); }

  friend bool operator==(const SidList& a, const SidList& b);
  friend bool operator==(const SidList& a, const std::vector<Sid>& b);
  friend bool operator==(const std::vector<Sid>& a, const SidList& b) {
    return b == a;
  }

 private:
  std::vector<SidContainer> containers_;
  size_t size_ = 0;
  Sid last_ = 0;
  bool has_last_ = false;
};

/// out = a ∩ b as a flat sorted sid vector (cleared first). Containers are
/// walked key-aligned — chunks on one side only are skipped whole — and
/// each aligned pair dispatches by kind: STTNI/scalar merge or galloping
/// for array×array, word-parallel AND for bitmap×bitmap, membership probes
/// for array×bitmap, interval walks when a run participates. `counts`
/// (optional) tallies the kernel mix.
void IntersectSidLists(const SidList& a, const SidList& b,
                       std::vector<Sid>& out,
                       ContainerOpCounts* counts = nullptr);

/// Scalar two-cursor merge: the reference the equivalence tests and
/// bench_ii_kernels measure the container kernels against.
void IntersectSidListsScalar(const SidList& a, const SidList& b,
                             std::vector<Sid>& out);

/// K-way union of `inputs` (the P-ROLL-UP merge core): per distinct
/// container key, single-source containers are copied and multi-source
/// ones are OR-ed into a bitmap accumulator, then normalized. The result
/// only depends on the union of the input sid sets.
SidList UnionManySidLists(std::span<const SidList* const> inputs,
                          ContainerOpCounts* counts = nullptr);

}  // namespace solap

#endif  // SOLAP_INDEX_CONTAINER_H_
