// Equivalence tests for the chunked container posting lists
// (index/container.h): the container kernels and the two-segment
// (base ⋈ delta) intersection must produce exactly the sid sets of the
// flat std::set_intersection reference over adversarial distributions
// (dense runs, singletons, chunk-boundary straddles), the per-pair kernel
// dispatch must pick the kernel its policy names (checked through
// ContainerOpCounts), and container lists must survive a CRC'd snapshot
// round trip bit-identically.
#include "solap/index/container.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <random>
#include <vector>

#include "solap/index/inverted_index.h"
#include "solap/storage/io.h"

namespace solap {
namespace {

std::vector<Sid> Sorted(std::vector<Sid> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// Adversarial sid-set generators, all sorted + deduplicated.
std::vector<Sid> DenseRun(Sid start, size_t len) {
  std::vector<Sid> v(len);
  for (size_t i = 0; i < len; ++i) v[i] = start + static_cast<Sid>(i);
  return v;
}

std::vector<Sid> Singletons(std::mt19937& rng, size_t n, Sid max) {
  std::vector<Sid> v;
  std::uniform_int_distribution<Sid> d(0, max);
  for (size_t i = 0; i < n; ++i) v.push_back(d(rng));
  return Sorted(std::move(v));
}

// Values hugging both sides of the 2^16 container boundaries.
std::vector<Sid> ChunkStraddle(size_t chunks) {
  std::vector<Sid> v;
  for (size_t c = 1; c <= chunks; ++c) {
    const Sid edge = static_cast<Sid>(c * kContainerSpan);
    v.push_back(edge - 2);
    v.push_back(edge - 1);
    v.push_back(edge);
    v.push_back(edge + 1);
  }
  return v;
}

std::vector<Sid> RefIntersect(const std::vector<Sid>& a,
                              const std::vector<Sid>& b) {
  std::vector<Sid> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<Sid> RefUnion(const std::vector<std::vector<Sid>>& ins) {
  std::vector<Sid> out;
  for (const auto& v : ins) out.insert(out.end(), v.begin(), v.end());
  return Sorted(std::move(out));
}

// Checks every container code path on (a, b): round trip, equality,
// Contains, both intersection kernels against the flat reference.
void CheckPair(const std::vector<Sid>& a, const std::vector<Sid>& b) {
  const SidList la = SidList::FromSorted(a);
  const SidList lb = SidList::FromSorted(b);
  EXPECT_EQ(la.size(), a.size());
  EXPECT_TRUE(la == a);
  EXPECT_EQ(la.ToVector(), a);

  const std::vector<Sid> expect = RefIntersect(a, b);
  std::vector<Sid> got;
  IntersectSidLists(la, lb, got);
  EXPECT_EQ(got, expect) << "container kernels";
  IntersectSidLists(lb, la, got);
  EXPECT_EQ(got, expect) << "container kernels swapped";
  IntersectSidListsScalar(la, lb, got);
  EXPECT_EQ(got, expect) << "scalar cursor merge";

  const SidList lu = UnionManySidLists(
      std::vector<const SidList*>{&la, &lb});
  EXPECT_TRUE(lu == RefUnion({a, b})) << "union";
}

TEST(SidListTest, AppendDedupesConsecutiveAndKeepsOrder) {
  SidList l;
  for (Sid s : {0u, 0u, 1u, 1u, 1u, 70000u, 70000u}) l.Append(s);
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.ToVector(), (std::vector<Sid>{0, 1, 70000}));
  EXPECT_EQ(l.containers().size(), 2u);  // chunk 0 and chunk 1
  EXPECT_TRUE(l.Contains(70000));
  EXPECT_FALSE(l.Contains(2));
}

TEST(SidListTest, NormalizePicksTheSmallestRepresentation) {
  // A full contiguous run: 2 pairs worth of run beats array and bitmap.
  SidList run = SidList::FromSorted(DenseRun(10, 30000));
  ASSERT_EQ(run.containers().size(), 1u);
  EXPECT_EQ(run.containers()[0].kind, SidContainer::Kind::kRun);

  // Sparse values stay an array.
  const std::vector<Sid> sparse = {1, 100, 5000, 60000};
  SidList arr = SidList::FromSorted(sparse);
  ASSERT_EQ(arr.containers().size(), 1u);
  EXPECT_EQ(arr.containers()[0].kind, SidContainer::Kind::kArray);

  // >4096 scattered values with no run structure become a bitmap.
  std::mt19937 rng(7);
  std::vector<Sid> dense = Singletons(rng, 20000, kContainerSpan - 1);
  ASSERT_GT(dense.size(), size_t{kArrayBitmapCrossover});
  SidList bm = SidList::FromSorted(dense);
  ASSERT_EQ(bm.containers().size(), 1u);
  EXPECT_EQ(bm.containers()[0].kind, SidContainer::Kind::kBitmap);
  EXPECT_TRUE(bm == dense);
}

TEST(ContainerKernels, AdversarialDistributions) {
  std::mt19937 rng(20080612);
  const std::vector<std::vector<Sid>> sets = {
      {},                                     // empty
      {42},                                   // single element
      DenseRun(0, 5000),                      // bitmap/run chunk from 0
      DenseRun(kContainerSpan - 100, 200),    // run straddling a boundary
      ChunkStraddle(4),                       // edges of 4 boundaries
      Singletons(rng, 300, 5 * kContainerSpan),   // sparse arrays
      Singletons(rng, 30000, 2 * kContainerSpan), // dense bitmaps
      RefUnion({DenseRun(1000, 3000), Singletons(rng, 50, kContainerSpan)}),
  };
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t j = 0; j < sets.size(); ++j) {
      SCOPED_TRACE(testing::Message() << "sets " << i << " x " << j);
      CheckPair(sets[i], sets[j]);
    }
  }
}

TEST(ContainerKernels, RandomizedFuzzAgainstFlatReference) {
  std::mt19937 rng(4096);
  for (int trial = 0; trial < 60; ++trial) {
    // Mix regimes so array, bitmap and run containers all appear and meet
    // each other across trials.
    auto make = [&] {
      std::vector<Sid> v;
      const int blocks = 1 + static_cast<int>(rng() % 4);
      for (int b = 0; b < blocks; ++b) {
        const Sid base = rng() % (3 * kContainerSpan);
        switch (rng() % 3) {
          case 0: {  // run
            const Sid len = 400 + rng() % 4000;
            for (Sid s = 0; s < len; ++s) v.push_back(base + s);
            break;
          }
          case 1: {  // dense scatter
            const size_t n = 2000 + rng() % 8000;
            for (size_t i = 0; i < n; ++i) {
              v.push_back(base + rng() % kContainerSpan);
            }
            break;
          }
          default: {  // sparse scatter
            const size_t n = rng() % 200;
            for (size_t i = 0; i < n; ++i) {
              v.push_back(base + rng() % kContainerSpan);
            }
            break;
          }
        }
      }
      return Sorted(std::move(v));
    };
    CheckPair(make(), make());
  }
}

// A list of `n` lows spaced two apart inside chunk `key`: no two members
// are adjacent, so Normalize keeps it an array (up to the crossover).
std::vector<Sid> SpacedArray(size_t n, Sid key, Sid phase) {
  std::vector<Sid> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (key << 16) + phase + 2 * static_cast<Sid>(i);
  }
  return v;
}

ContainerOpCounts CountPair(const std::vector<Sid>& a,
                            const std::vector<Sid>& b) {
  const SidList la = SidList::FromSorted(a);
  const SidList lb = SidList::FromSorted(b);
  ContainerOpCounts counts;
  std::vector<Sid> got;
  IntersectSidLists(la, lb, got, &counts);
  EXPECT_EQ(got, RefIntersect(a, b));
  return counts;
}

TEST(ContainerKernelPolicy, ArrayPairGallopsExactlyAtTheSizeRatio) {
  for (size_t small : {size_t{1}, size_t{7}, size_t{100}, size_t{200}}) {
    SCOPED_TRACE(testing::Message() << "small " << small);
    const std::vector<Sid> a = SpacedArray(small, 3, 0);
    const std::vector<Sid> at = SpacedArray(small * kGallopSizeRatio, 3, 0);
    const std::vector<Sid> below =
        SpacedArray(small * kGallopSizeRatio - 1, 3, 0);
    ASSERT_EQ(SidList::FromSorted(at).containers()[0].kind,
              SidContainer::Kind::kArray);
    for (bool swap : {false, true}) {
      // small * ratio == large: gallop.
      ContainerOpCounts c = swap ? CountPair(at, a) : CountPair(a, at);
      EXPECT_EQ(c.gallop_ops, 1u);
      EXPECT_EQ(c.array_ops, 0u);
      // One element below: merge.
      c = swap ? CountPair(below, a) : CountPair(a, below);
      EXPECT_EQ(c.gallop_ops, 0u);
      EXPECT_EQ(c.array_ops, 1u);
    }
  }
}

TEST(ContainerKernelPolicy, BitmapPairTalliesBitmapOps) {
  std::mt19937 rng(11);
  const std::vector<Sid> dense_a = Singletons(rng, 20000, kContainerSpan - 1);
  const std::vector<Sid> dense_b = Singletons(rng, 20000, kContainerSpan - 1);
  ASSERT_EQ(SidList::FromSorted(dense_a).containers()[0].kind,
            SidContainer::Kind::kBitmap);
  ContainerOpCounts c = CountPair(dense_a, dense_b);
  EXPECT_EQ(c.bitmap_ops, 1u);
  EXPECT_EQ(c.array_ops + c.gallop_ops + c.run_ops, 0u);
  // A mixed array × bitmap pair is a bitmap op too (membership probes).
  c = CountPair(SpacedArray(300, 0, 1), dense_b);
  EXPECT_EQ(c.bitmap_ops, 1u);
  EXPECT_EQ(c.array_ops + c.gallop_ops + c.run_ops, 0u);
}

TEST(ContainerKernelPolicy, RunPairTalliesRunOps) {
  std::mt19937 rng(12);
  const std::vector<Sid> run_a = DenseRun(100, 20000);
  const std::vector<Sid> run_b = RefUnion({DenseRun(50, 3000),
                                           DenseRun(9000, 30000)});
  ASSERT_EQ(SidList::FromSorted(run_a).containers()[0].kind,
            SidContainer::Kind::kRun);
  ASSERT_EQ(SidList::FromSorted(run_b).containers()[0].kind,
            SidContainer::Kind::kRun);
  ContainerOpCounts c = CountPair(run_a, run_b);
  EXPECT_EQ(c.run_ops, 1u);
  EXPECT_EQ(c.array_ops + c.gallop_ops + c.bitmap_ops, 0u);
  // A run meeting an array or a bitmap still counts as a run op.
  c = CountPair(run_a, SpacedArray(300, 0, 1));
  EXPECT_EQ(c.run_ops, 1u);
  EXPECT_EQ(c.array_ops + c.gallop_ops + c.bitmap_ops, 0u);
  c = CountPair(Singletons(rng, 20000, kContainerSpan - 1), run_b);
  EXPECT_EQ(c.run_ops, 1u);
  EXPECT_EQ(c.array_ops + c.gallop_ops + c.bitmap_ops, 0u);
}

// One segment of a logical list, as IntersectSegmented sees it: absent
// (null), present but empty, or a list.
struct Segment {
  bool null = true;
  SidList list;
  const SidList* ptr() const { return null ? nullptr : &list; }
};

Segment MakeSegment(std::mt19937& rng, const std::vector<Sid>& sids) {
  Segment seg;
  const unsigned pick = rng() % 8;
  if (pick == 0) return seg;  // absent: its sids drop out of the list
  seg.null = false;
  if (pick != 1) seg.list = SidList::FromSorted(sids);  // 1: empty list
  return seg;
}

TEST(SegmentedIntersect, RandomizedAgainstUnionReference) {
  std::mt19937 rng(2008);
  const Sid span = 4 * kContainerSpan;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    // Two logical lists over a shared pool, so they overlap. Each is split
    // at its own watermark into base (< watermark) and delta (>= it): the
    // per-index invariant. The watermarks differ, so a sid between them
    // sits in one index's base and the other's delta (the cross-vintage
    // case). Watermarks and straddle values hug the 2^16 chunk edges.
    std::vector<Sid> pool = ChunkStraddle(3);
    const size_t n = rng() % 3000;
    for (size_t i = 0; i < n; ++i) pool.push_back(rng() % span);
    if (rng() % 2 == 0) {
      const std::vector<Sid> run = DenseRun(rng() % span, 1 + rng() % 5000);
      pool.insert(pool.end(), run.begin(), run.end());
    }
    auto draw = [&] {
      std::vector<Sid> v;
      for (Sid s : pool) {
        if (rng() % 3 != 0) v.push_back(s);
      }
      return Sorted(std::move(v));
    };
    auto watermark = [&]() -> Sid {
      const Sid edge = static_cast<Sid>(1 + rng() % 3) * kContainerSpan;
      switch (rng() % 4) {
        case 0: return 0;     // everything in the delta
        case 1: return span;  // everything in the base
        case 2: return edge - 1 + rng() % 3;
        default: return rng() % span;
      }
    };
    const std::vector<Sid> a = draw(), b = draw();
    const Sid wa = watermark(), wb = watermark();
    auto split = [](const std::vector<Sid>& v, Sid w) {
      const auto mid = std::lower_bound(v.begin(), v.end(), w);
      return std::make_pair(std::vector<Sid>(v.begin(), mid),
                            std::vector<Sid>(mid, v.end()));
    };
    const auto [a_base, a_delta] = split(a, wa);
    const auto [b_base, b_delta] = split(b, wb);
    const Segment sa_base = MakeSegment(rng, a_base);
    const Segment sa_delta = MakeSegment(rng, a_delta);
    const Segment sb_base = MakeSegment(rng, b_base);
    const Segment sb_delta = MakeSegment(rng, b_delta);
    auto logical = [](const Segment& base, const std::vector<Sid>& bv,
                      const Segment& delta, const std::vector<Sid>& dv) {
      std::vector<Sid> v;
      if (!base.null && !base.list.empty()) v = bv;
      if (!delta.null && !delta.list.empty()) {
        v.insert(v.end(), dv.begin(), dv.end());
      }
      return v;
    };
    const std::vector<Sid> expect =
        RefIntersect(logical(sa_base, a_base, sa_delta, a_delta),
                     logical(sb_base, b_base, sb_delta, b_delta));
    std::vector<Sid> got = {12345};  // stale content must be cleared
    ContainerOpCounts counts;
    IntersectSegmented(sa_base.ptr(), sa_delta.ptr(), sb_base.ptr(),
                       sb_delta.ptr(), got, &counts);
    EXPECT_EQ(got, expect);
    IntersectSegmented(sb_base.ptr(), sb_delta.ptr(), sa_base.ptr(),
                       sa_delta.ptr(), got, nullptr);
    EXPECT_EQ(got, expect) << "swapped";
  }
}

TEST(SegmentedIntersect, SidInOneBaseAndTheOtherDelta) {
  // An older index still holds 70000 in its delta while a freshly built
  // one has it in its base; 65535/65536 straddle the first chunk edge.
  const SidList a_base = SidList::FromSorted(std::vector<Sid>{5, 65535});
  const SidList a_delta = SidList::FromSorted(std::vector<Sid>{65536, 70000});
  const SidList b_base =
      SidList::FromSorted(std::vector<Sid>{5, 65536, 70000});
  const SidList b_delta = SidList::FromSorted(std::vector<Sid>{65535});
  std::vector<Sid> got;
  IntersectSegmented(&a_base, &a_delta, &b_base, &b_delta, got, nullptr);
  EXPECT_EQ(got, (std::vector<Sid>{5, 65535, 65536, 70000}));
  IntersectSegmented(nullptr, &a_delta, &b_base, nullptr, got, nullptr);
  EXPECT_EQ(got, (std::vector<Sid>{65536, 70000}));
  IntersectSegmented(nullptr, nullptr, &b_base, &b_delta, got, nullptr);
  EXPECT_TRUE(got.empty());
}

TEST(ContainerKernels, UnionManyMatchesReference) {
  std::mt19937 rng(99);
  std::vector<std::vector<Sid>> flats;
  std::vector<SidList> lists;
  for (int i = 0; i < 7; ++i) {
    std::vector<Sid> v = (i % 2 == 0)
                             ? Singletons(rng, 500 * (i + 1), 2 * kContainerSpan)
                             : DenseRun(i * 10000, 6000);
    lists.push_back(SidList::FromSorted(v));
    flats.push_back(std::move(v));
  }
  std::vector<const SidList*> ptrs;
  for (const SidList& l : lists) ptrs.push_back(&l);
  ContainerOpCounts counts;
  const SidList got = UnionManySidLists(ptrs, &counts);
  EXPECT_TRUE(got == RefUnion(flats));
  EXPECT_GT(counts.array_ops + counts.bitmap_ops + counts.run_ops, 0u);
}

TEST(ContainerSnapshot, IndexRoundTripsThroughCrcWriter) {
  // Build an index whose lists exercise all three container kinds, save it
  // through the CRC'd snapshot writer, and require bit-identical lists.
  IndexShape shape;
  shape.kind = PatternKind::kSubstring;
  shape.positions = {{"attr", "symbol"}};
  InvertedIndex index(shape, /*complete=*/true);
  std::mt19937 rng(5);
  index.lists().emplace(PatternKey{0}, SidList::FromSorted(DenseRun(5, 9000)));
  index.lists().emplace(PatternKey{1},
                        SidList::FromSorted(Singletons(rng, 40, 200000)));
  index.lists().emplace(
      PatternKey{2},
      SidList::FromSorted(Singletons(rng, 30000, 2 * kContainerSpan)));
  index.lists().emplace(PatternKey{3},
                        SidList::FromSorted(ChunkStraddle(3)));
  index.NormalizeLists();

  const std::string path = testing::TempDir() + "/container_index.snap";
  ASSERT_TRUE(SaveIndex(index, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_lists(), index.num_lists());
  for (const auto& [key, list] : index.lists()) {
    const SidList* got = (*loaded)->Find(key);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(*got == list);
    // Same containers, not just the same sids: kinds and payloads match.
    ASSERT_EQ(got->containers().size(), list.containers().size());
    for (size_t i = 0; i < list.containers().size(); ++i) {
      EXPECT_EQ(got->containers()[i].kind, list.containers()[i].kind);
      EXPECT_EQ(got->containers()[i].values, list.containers()[i].values);
      EXPECT_EQ(got->containers()[i].words, list.containers()[i].words);
    }
  }
  std::remove(path.c_str());
}

TEST(ContainerSnapshot, RejectsMalformedContainers) {
  IndexShape shape;
  shape.kind = PatternKind::kSubstring;
  shape.positions = {{"attr", "symbol"}};
  InvertedIndex index(shape, true);
  index.lists().emplace(PatternKey{0}, SidList::FromSorted(DenseRun(0, 10)));
  const std::string path = testing::TempDir() + "/container_bad.snap";
  ASSERT_TRUE(SaveIndex(index, path).ok());

  // Flip a byte in the middle; either the CRC or the container validation
  // must reject the load — never a crash or a silently wrong index.
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -12, SEEK_END);
  std::fputc(0xFF, f);
  std::fclose(f);
  auto loaded = LoadIndex(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace solap
