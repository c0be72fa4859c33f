// Unit tests for the inverted-index layer, validated against the paper's
// worked examples: Figure 10 (L1/L2 of the Fig. 8 group), Figure 13
// (the L2 ⋈ L2 join producing L3^(X,Y,Y) with verification), Figure 14
// (L4^(X,Y,Y,X)), the §4.2.2 P-ROLL-UP merge example, and the s6
// restricted-symbol caveat.
#include <gtest/gtest.h>

#include <algorithm>

#include "paper_fixtures.h"
#include "solap/index/build_index.h"
#include "solap/index/index_ops.h"

namespace solap {
namespace {

using testing::Fig8Hierarchies;
using testing::Fig8RawGroups;

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : set_(Fig8RawGroups()), reg_(Fig8Hierarchies()) {}

  Code C(const std::string& name) {
    Code c = set_->raw_dictionary().Lookup(name);
    EXPECT_NE(c, kNullCode) << name;
    return c;
  }
  PatternKey Key(std::vector<std::string> names) {
    PatternKey k;
    for (const auto& n : names) k.push_back(C(n));
    return k;
  }

  IndexShape Shape(size_t m, const std::string& level = "symbol",
                   PatternKind kind = PatternKind::kSubstring) {
    IndexShape s;
    s.kind = kind;
    s.positions.assign(m, LevelRef{"symbol", level});
    return s;
  }

  std::shared_ptr<InvertedIndex> Build(const IndexShape& shape) {
    auto r = BuildIndex(&set_->groups()[0], *set_, reg_.get(), shape,
                        &stats_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  BoundPattern BindTemplate(const PatternTemplate* t) {
    auto bp = BoundPattern::Bind(t, &set_->groups()[0], *set_, reg_.get(),
                                 nullptr, {});
    EXPECT_TRUE(bp.ok()) << bp.status().ToString();
    return *std::move(bp);
  }

  std::shared_ptr<SequenceGroupSet> set_;
  std::shared_ptr<HierarchyRegistry> reg_;
  ScanStats stats_;
};

// Figure 10, left column: L1.
TEST_F(IndexTest, BuildL1MatchesFigure10) {
  auto l1 = Build(Shape(1));
  EXPECT_TRUE(l1->complete());
  EXPECT_EQ(l1->num_lists(), 5u);
  // Sids: s1=0, s2=1, s3=2, s4=3.
  EXPECT_EQ(*l1->Find(Key({"Clarendon"})), (std::vector<Sid>{2, 3}));
  EXPECT_EQ(*l1->Find(Key({"Deanwood"})), (std::vector<Sid>{3}));
  EXPECT_EQ(*l1->Find(Key({"Glenmont"})), (std::vector<Sid>{0}));
  EXPECT_EQ(*l1->Find(Key({"Pentagon"})), (std::vector<Sid>{0, 1, 2}));
  EXPECT_EQ(*l1->Find(Key({"Wheaton"})), (std::vector<Sid>{0, 1, 3}));
}

// Figure 10, right column: L2 (the nine non-empty lists l1..l9).
TEST_F(IndexTest, BuildL2MatchesFigure10) {
  auto l2 = Build(Shape(2));
  EXPECT_EQ(l2->num_lists(), 9u);
  EXPECT_EQ(*l2->Find(Key({"Clarendon", "Deanwood"})), (std::vector<Sid>{3}));
  EXPECT_EQ(*l2->Find(Key({"Clarendon", "Pentagon"})), (std::vector<Sid>{2}));
  EXPECT_EQ(*l2->Find(Key({"Deanwood", "Wheaton"})), (std::vector<Sid>{3}));
  EXPECT_EQ(*l2->Find(Key({"Glenmont", "Pentagon"})), (std::vector<Sid>{0}));
  EXPECT_EQ(*l2->Find(Key({"Pentagon", "Pentagon"})), (std::vector<Sid>{0}));
  EXPECT_EQ(*l2->Find(Key({"Pentagon", "Wheaton"})),
            (std::vector<Sid>{0, 1}));
  EXPECT_EQ(*l2->Find(Key({"Wheaton", "Clarendon"})), (std::vector<Sid>{3}));
  EXPECT_EQ(*l2->Find(Key({"Wheaton", "Pentagon"})),
            (std::vector<Sid>{0, 1}));
  EXPECT_EQ(*l2->Find(Key({"Wheaton", "Wheaton"})), (std::vector<Sid>{0, 1}));
  EXPECT_EQ(l2->Find(Key({"Clarendon", "Clarendon"})), nullptr);
}

// Figures 13/14: joining L2 with itself under template (X,Y,Y,X).
TEST_F(IndexTest, JoinReproducesFigures13And14) {
  PatternDim dx{"X", {"symbol", "symbol"}, {}, ""};
  PatternDim dy{"Y", {"symbol", "symbol"}, {}, ""};
  auto t = PatternTemplate::Make(PatternKind::kSubstring,
                                 {"X", "Y", "Y", "X"}, {dx, dy});
  ASSERT_TRUE(t.ok());
  BoundPattern bp = BindTemplate(&*t);
  auto l2 = Build(Shape(2));

  // L3^(X,Y,Y) = L2^(X,Y) ⋈ L2^(Y,Y), then verify against the data.
  auto l3 = JoinExtendRight(*l2, *l2, *t, 0, bp, &stats_);
  ASSERT_TRUE(l3.ok()) << l3.status().ToString();
  // The paper's verification removes s1 from [P,P,P] and [W,P,P], and the
  // candidate [C,P,P] and [D,W,W] intersections come up empty, leaving:
  EXPECT_EQ(*(*l3)->Find(Key({"Glenmont", "Pentagon", "Pentagon"})),
            (std::vector<Sid>{0}));
  EXPECT_EQ(*(*l3)->Find(Key({"Pentagon", "Wheaton", "Wheaton"})),
            (std::vector<Sid>{0, 1}));
  EXPECT_EQ((*l3)->Find(Key({"Pentagon", "Pentagon", "Pentagon"})), nullptr);
  EXPECT_EQ((*l3)->Find(Key({"Wheaton", "Pentagon", "Pentagon"})), nullptr);
  EXPECT_EQ((*l3)->Find(Key({"Deanwood", "Wheaton", "Wheaton"})), nullptr);
  // The join was filtered by the repeated symbol (Y == Y): not complete.
  EXPECT_FALSE((*l3)->complete());
  EXPECT_FALSE((*l3)->constraint_sig().empty());

  // L4^(X,Y,Y,X) = L3 ⋈ L2^(Y,X): the single Fig. 14 list.
  auto l4 = JoinExtendRight(**l3, *l2, *t, 0, bp, &stats_);
  ASSERT_TRUE(l4.ok());
  EXPECT_EQ((*l4)->num_lists(), 1u);
  EXPECT_EQ(
      *(*l4)->Find(Key({"Pentagon", "Wheaton", "Wheaton", "Pentagon"})),
      (std::vector<Sid>{0, 1}));
}

TEST_F(IndexTest, JoinExtendLeftMirrorsRight) {
  PatternDim dx{"X", {"symbol", "symbol"}, {}, ""};
  PatternDim dy{"Y", {"symbol", "symbol"}, {}, ""};
  PatternDim dz{"Z", {"symbol", "symbol"}, {}, ""};
  auto t = PatternTemplate::Make(PatternKind::kSubstring, {"X", "Y", "Z"},
                                 {dx, dy, dz});
  ASSERT_TRUE(t.ok());
  BoundPattern bp = BindTemplate(&*t);
  auto l2 = Build(Shape(2));
  // Grow a suffix index covering [1,3) leftwards to [0,3).
  auto right = JoinExtendRight(*l2, *l2, *t, 0, bp, &stats_);
  ASSERT_TRUE(right.ok());
  auto left = JoinExtendLeft(*l2, *l2, *t, 0, bp, &stats_);
  ASSERT_TRUE(left.ok());
  // Both directions must produce identical unrestricted L3 content.
  EXPECT_EQ((*right)->num_lists(), (*left)->num_lists());
  for (const auto& [key, list] : (*right)->lists()) {
    const SidList* other = (*left)->Find(key);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(*other, list);
  }
  EXPECT_TRUE((*right)->complete());
  EXPECT_TRUE((*left)->complete());
}

// §4.2.2 P-ROLL-UP example: merging unrestricted L2 station lists to the
// district level; [Wheaton, D10] = l7 ∪ l8 = {s1, s2, s4} (count 3).
TEST_F(IndexTest, RollUpMergeMatchesPaperExample) {
  auto l2 = Build(Shape(2));
  auto* h = reg_->Find("symbol");
  ASSERT_NE(h, nullptr);
  std::vector<Code> map = h->LevelToLevel(set_->raw_dictionary(), 0, 1);
  IndexShape coarse2 = Shape(2);
  coarse2.positions[1].level = "district";
  auto merged =
      RollUpMerge(*l2, {std::vector<Code>{}, map}, coarse2, nullptr, nullptr, &stats_);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  Code wheaton = C("Wheaton");
  Code d10 = map[C("Pentagon")];
  EXPECT_EQ(map[C("Clarendon")], d10);
  const SidList* list = (*merged)->Find({wheaton, d10});
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(*list, (std::vector<Sid>{0, 1, 3}));  // {s1, s2, s4}
  EXPECT_TRUE((*merged)->complete());
}

// §4.2.2 caveat: the restricted L4^(X,Y,Y,X) index must NOT be merged —
// sequence s6 = <Pentagon, Wheaton, Wheaton, Clarendon> contains the
// district pattern (D10, D20, D20, D10) but no station-level (X,Y,Y,X).
TEST_F(IndexTest, RestrictedRollUpMergeIsRefused) {
  auto set = std::make_shared<SequenceGroupSet>("symbol");
  SequenceGroup& g = set->GroupFor({});
  std::vector<Code> s6;
  for (const char* name : {"Pentagon", "Wheaton", "Wheaton", "Clarendon"}) {
    s6.push_back(set->raw_dictionary().GetOrAdd(name));
  }
  g.AddSequence(s6);

  PatternDim dx{"X", {"symbol", "symbol"}, {}, ""};
  PatternDim dy{"Y", {"symbol", "symbol"}, {}, ""};
  auto t = PatternTemplate::Make(PatternKind::kSubstring,
                                 {"X", "Y", "Y", "X"}, {dx, dy});
  ASSERT_TRUE(t.ok());
  auto bp = BoundPattern::Bind(&*t, &g, *set, reg_.get(), nullptr, {});
  ASSERT_TRUE(bp.ok());

  IndexShape shape2;
  shape2.kind = PatternKind::kSubstring;
  shape2.positions.assign(2, LevelRef{"symbol", "symbol"});
  auto l2 = BuildIndex(&g, *set, reg_.get(), shape2, &stats_);
  ASSERT_TRUE(l2.ok());
  auto l3 = JoinExtendRight(**l2, **l2, *t, 0, *bp, &stats_);
  ASSERT_TRUE(l3.ok());
  auto l4 = JoinExtendRight(**l3, **l2, *t, 0, *bp, &stats_);
  ASSERT_TRUE(l4.ok());
  // Station level: s6 matches no (X,Y,Y,X) instantiation at all.
  EXPECT_EQ((*l4)->num_lists(), 0u);
  EXPECT_FALSE((*l4)->complete());
  // Merging this restricted index would lose s6 — RollUpMerge refuses.
  auto* h = reg_->Find("symbol");
  std::vector<Code> map = h->LevelToLevel(set->raw_dictionary(), 0, 1);
  IndexShape coarse = (*l4)->shape();
  for (auto& p : coarse.positions) p.level = "district";
  auto merged = RollUpMerge(**l4, std::vector<std::vector<Code>>(4, map),
                            coarse, nullptr, nullptr, &stats_);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IndexTest, DrillDownRefineInvertsRollUp) {
  // Build L2 at (station, district), then refine position 1 back to
  // station level; the result must equal the direct station-level L2.
  auto l2_fine = Build(Shape(2));
  auto* h = reg_->Find("symbol");
  std::vector<Code> map = h->LevelToLevel(set_->raw_dictionary(), 0, 1);
  IndexShape coarse2 = Shape(2);
  coarse2.positions[1].level = "district";
  auto coarse =
      RollUpMerge(*l2_fine, {std::vector<Code>{}, map}, coarse2, nullptr, nullptr, &stats_);
  ASSERT_TRUE(coarse.ok());

  PatternDim dx{"X", {"symbol", "symbol"}, {}, ""};
  PatternDim dy{"Y", {"symbol", "symbol"}, {}, ""};
  auto t = PatternTemplate::Make(PatternKind::kSubstring, {"X", "Y"},
                                 {dx, dy});
  ASSERT_TRUE(t.ok());
  BoundPattern bp = BindTemplate(&*t);
  auto refined = DrillDownRefine(**coarse, {std::vector<Code>{}, map}, bp,
                                 Shape(2), nullptr, &stats_);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_EQ((*refined)->num_lists(), l2_fine->num_lists());
  for (const auto& [key, list] : l2_fine->lists()) {
    const SidList* got = (*refined)->Find(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, list);
  }
}

TEST_F(IndexTest, SubsequenceIndexContainsGappedPatterns) {
  auto l2 = Build(Shape(2, "symbol", PatternKind::kSubsequence));
  // (Wheaton, Deanwood) never adjacent but s4 = <W,C,D,W> has it gapped.
  const SidList* list = l2->Find(Key({"Wheaton", "Deanwood"}));
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(*list, (std::vector<Sid>{3}));
}

TEST_F(IndexTest, ByteSizeAndEntriesAccounting) {
  auto l2 = Build(Shape(2));
  EXPECT_EQ(l2->total_entries(), 12u);  // sum of Fig. 10 list sizes
  // ByteSize reports the bytes actually held by the container layout
  // (struct + payload capacities + keys) — pin it to the per-list sum and
  // bound it below by the raw payload.
  size_t per_list_sum = 0;
  for (const auto& [key, list] : l2->lists()) {
    per_list_sum += key.size() * sizeof(Code) + list.ByteSize();
  }
  EXPECT_EQ(l2->ByteSize(), per_list_sum);
  EXPECT_GE(l2->ByteSize(),
            12 * sizeof(uint16_t) + 9 * 2 * sizeof(Code));
  EXPECT_GT(stats_.index_bytes_built, 0u);
  EXPECT_GT(stats_.lists_built, 0u);
}

// `got` and `want` hold the same lists: the same sid sets and sizes, and
// containers with the same keys normalized to the same kinds.
void ExpectSameLists(const InvertedIndex& got, const InvertedIndex& want) {
  ASSERT_EQ(got.num_lists(), want.num_lists());
  for (const auto& [key, list] : want.lists()) {
    const SidList* g = got.Find(key);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->size(), list.size());
    EXPECT_EQ(g->ToVector(), list.ToVector());
    ASSERT_EQ(g->containers().size(), list.containers().size());
    for (size_t i = 0; i < list.containers().size(); ++i) {
      EXPECT_EQ(g->containers()[i].key, list.containers()[i].key);
      EXPECT_EQ(g->containers()[i].kind, list.containers()[i].kind);
    }
  }
}

// The incremental update (paper §6): appending the sids of new sequences
// to an index in place yields the index a rebuild over the whole group
// yields. Covered: last containers of run, bitmap and array kind, appends
// that open a new 2^16 chunk and a new list, and complete indices whose
// lists were built by BuildIndex, by a join (SidList::FromSorted) and by
// a roll-up merge (UnionManySidLists).
TEST_F(IndexTest, AppendToIndexInPlaceMatchesRebuild) {
  auto set = std::make_shared<SequenceGroupSet>("symbol");
  SequenceGroup& g = set->GroupFor({});
  auto code = [&](const char* name) {
    return set->raw_dictionary().GetOrAdd(name);
  };
  // Pentagon is in every sequence (a run container), Wheaton in every
  // even one (a bitmap), Deanwood in every 97th (an array), Clarendon in
  // every third, and Glenmont only from sid 65400 on.
  auto add_until = [&](Sid end) {
    for (Sid s = static_cast<Sid>(g.num_sequences()); s < end; ++s) {
      std::vector<Code> seq = {code("Pentagon")};
      if (s % 2 == 0) seq.push_back(code("Wheaton"));
      if (s % 97 == 0) seq.push_back(code("Deanwood"));
      if (s % 3 == 1) seq.push_back(code("Clarendon"));
      if (s >= 65400) seq.push_back(code("Glenmont"));
      g.AddSequence(seq);
    }
    g.InvalidateViews();  // views cover the old extent only
  };
  auto build = [&](const IndexShape& shape) {
    auto r = BuildIndex(&g, *set, reg_.get(), shape, &stats_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  };
  add_until(30000);

  auto l1 = build(Shape(1));
  auto last_kind = [&](const char* name) {
    return l1->Find({code(name)})->containers().back().kind;
  };
  ASSERT_EQ(last_kind("Pentagon"), SidContainer::Kind::kRun);
  ASSERT_EQ(last_kind("Wheaton"), SidContainer::Kind::kBitmap);
  ASSERT_EQ(last_kind("Deanwood"), SidContainer::Kind::kArray);

  auto l2 = build(Shape(2));
  PatternDim dx{"X", {"symbol", "symbol"}, {}, ""};
  PatternDim dy{"Y", {"symbol", "symbol"}, {}, ""};
  PatternDim dz{"Z", {"symbol", "symbol"}, {}, ""};
  auto t = PatternTemplate::Make(PatternKind::kSubstring, {"X", "Y", "Z"},
                                 {dx, dy, dz});
  ASSERT_TRUE(t.ok());
  auto bp = BoundPattern::Bind(&*t, &g, *set, reg_.get(), nullptr, {});
  ASSERT_TRUE(bp.ok());
  auto l3 = JoinExtendRight(*l2, *l2, *t, 0, *bp, &stats_);
  ASSERT_TRUE(l3.ok()) << l3.status().ToString();
  ASSERT_TRUE((*l3)->complete());
  ASSERT_GT((*l3)->num_lists(), 0u);

  std::vector<Code> map =
      reg_->Find("symbol")->LevelToLevel(set->raw_dictionary(), 0, 1);
  IndexShape coarse = Shape(2);
  coarse.positions[1].level = "district";
  auto rolled = RollUpMerge(*l2, {std::vector<Code>{}, map}, coarse, nullptr,
                            nullptr, &stats_);
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();

  const std::vector<std::shared_ptr<InvertedIndex>> grown = {l1, l2, *l3,
                                                             *rolled};
  // Up to 65400 every append lands in the last container of the first
  // 2^16 chunk; up to 66000 the appends open the next chunk, and
  // Glenmont's lists appear.
  for (Sid end : {Sid{65400}, Sid{66000}}) {
    const Sid from = static_cast<Sid>(g.num_sequences());
    add_until(end);
    for (const auto& index : grown) {
      SCOPED_TRACE(index->shape().CanonicalString() + " up to " +
                   std::to_string(end));
      ASSERT_TRUE(
          AppendToIndex(index.get(), &g, *set, reg_.get(), from, &stats_)
              .ok());
      ExpectSameLists(*index, *build(index->shape()));
    }
  }
  EXPECT_EQ(l1->Find({code("Pentagon")})->containers().size(), 2u);
  EXPECT_NE(l1->Find({code("Glenmont")}), nullptr);
}

}  // namespace
}  // namespace solap
