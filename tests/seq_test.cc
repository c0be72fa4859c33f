// Unit tests for the sequence layer: dimension bindings, sequence groups,
// the formation pipeline (steps 1-4 of S-cuboid construction), and caching.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "paper_fixtures.h"
#include "solap/common/mem_budget.h"
#include "solap/gen/transit.h"
#include "solap/index/build_index.h"
#include "solap/seq/sequence_cache.h"
#include "solap/seq/sequence_query_engine.h"

namespace solap {
namespace {

using testing::Fig8Hierarchies;
using testing::Fig8RawGroups;
using testing::Fig8Table;

TEST(DimensionBindingTest, StringIdentityAndHierarchyLevels) {
  auto table = Fig8Table();
  auto reg = Fig8Hierarchies();
  auto station = DimensionBinding::MakeForTable(*table, reg.get(),
                                                {"location", "station"});
  ASSERT_TRUE(station.ok());
  EXPECT_EQ(station->Label(station->CodeOf(*table, 0)), "Glenmont");

  auto district = DimensionBinding::MakeForTable(*table, reg.get(),
                                                 {"location", "district"});
  ASSERT_TRUE(district.ok());
  EXPECT_EQ(district->Label(district->CodeOf(*table, 0)), "D20");
  // Row 1 is Pentagon; the two code paths must agree.
  EXPECT_EQ(district->CodeOf(*table, 1),
            district->MapBaseCode(station->CodeOf(*table, 1)));
}

TEST(DimensionBindingTest, CalendarLevels) {
  auto table = Fig8Table();
  auto day = DimensionBinding::MakeForTable(*table, nullptr, {"time", "day"});
  ASSERT_TRUE(day.ok());
  EXPECT_EQ(day->Label(day->CodeOf(*table, 0)), "2007-12-25");
  auto bad =
      DimensionBinding::MakeForTable(*table, nullptr, {"time", "stardate"});
  EXPECT_FALSE(bad.ok());
}

TEST(DimensionBindingTest, RejectsUnknownLevelAndMeasureAttr) {
  auto table = Fig8Table();
  auto reg = Fig8Hierarchies();
  EXPECT_FALSE(DimensionBinding::MakeForTable(*table, reg.get(),
                                              {"location", "continent"})
                   .ok());
  EXPECT_FALSE(
      DimensionBinding::MakeForTable(*table, reg.get(), {"amount", "amount"})
          .ok());
}

TEST(DimensionBindingTest, CodeOfLabelAndAllowedCodes) {
  auto table = Fig8Table();
  auto reg = Fig8Hierarchies();
  auto station = DimensionBinding::MakeForTable(*table, reg.get(),
                                                {"location", "station"});
  ASSERT_TRUE(station.ok());
  auto code = station->CodeOfLabel("Pentagon");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(station->Label(*code), "Pentagon");
  EXPECT_EQ(*station->CodeOfLabel("Atlantis"), kNullCode);

  // A district-level slice expands to its member stations.
  auto allowed = station->AllowedCodes("district", {"D10"});
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  EXPECT_EQ(allowed->size(), 2u);  // Pentagon + Clarendon
}

TEST(SequenceGroupTest, CsrStorageAndViews) {
  auto set = Fig8RawGroups();
  SequenceGroup& g = set->groups()[0];
  EXPECT_EQ(g.num_sequences(), 4u);
  EXPECT_EQ(g.length(0), 6u);
  EXPECT_EQ(g.length(2), 2u);
  EXPECT_EQ(g.total_events(), 16u);

  auto reg = Fig8Hierarchies();
  auto b = set->BindDimension(reg.get(), {"symbol", "symbol"});
  ASSERT_TRUE(b.ok());
  const std::vector<Code>& view = g.ViewFor(*b);
  std::span<const Code> s2 = g.Symbols(view, 1);
  ASSERT_EQ(s2.size(), 4u);
  EXPECT_EQ(b->Label(s2[0]), "Pentagon");
  EXPECT_EQ(b->Label(s2[3]), "Pentagon");
  // Same-level view is cached (same address).
  EXPECT_EQ(&g.ViewFor(*b), &view);

  auto dist = set->BindDimension(reg.get(), {"symbol", "district"});
  ASSERT_TRUE(dist.ok());
  const std::vector<Code>& dview = g.ViewFor(*dist);
  EXPECT_EQ(dist->Label(g.Symbols(dview, 1)[0]), "D10");
}

TEST(SequenceGroupSetTest, RawDimensionValidation) {
  auto set = Fig8RawGroups();
  EXPECT_FALSE(set->BindDimension(nullptr, {"location", "station"}).ok());
  EXPECT_TRUE(set->BindDimension(nullptr, {"symbol", "symbol"}).ok());
}

class FormationTest : public ::testing::Test {
 protected:
  FormationTest() : table_(Fig8Table()), reg_(Fig8Hierarchies()) {}

  SequenceSpec BaseSpec() {
    SequenceSpec s;
    s.cluster_by = {{"card-id", "card-id"}, {"time", "day"}};
    s.sequence_by = "time";
    return s;
  }

  std::shared_ptr<EventTable> table_;
  std::shared_ptr<HierarchyRegistry> reg_;
};

TEST_F(FormationTest, ClusterAndOrderReproducesFig8) {
  SequenceQueryEngine sqe(reg_.get());
  auto set = sqe.Build(*table_, BaseSpec());
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ((*set)->groups().size(), 1u);  // no SEQUENCE GROUP BY
  SequenceGroup& g = (*set)->groups()[0];
  ASSERT_EQ(g.num_sequences(), 4u);
  size_t total = 0;
  for (Sid s = 0; s < 4; ++s) total += g.length(s);
  EXPECT_EQ(total, 16u);
  // Each sequence's rows must be time-ordered.
  for (Sid s = 0; s < 4; ++s) {
    auto rows = g.Rows(s);
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LE(table_->Int64At(rows[i - 1], 0), table_->Int64At(rows[i], 0));
    }
  }
}

TEST_F(FormationTest, WhereClauseFiltersEvents) {
  SequenceSpec spec = BaseSpec();
  spec.where =
      Expr::Eq(Expr::Col("card-id"), Expr::Lit(Value::String("688")));
  SequenceQueryEngine sqe(reg_.get());
  auto set = sqe.Build(*table_, spec);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ((*set)->total_sequences(), 1u);
  EXPECT_EQ((*set)->groups()[0].total_events(), 6u);
}

TEST_F(FormationTest, DescendingOrderReversesSequences) {
  SequenceSpec asc = BaseSpec();
  SequenceSpec desc = BaseSpec();
  desc.ascending = false;
  SequenceQueryEngine sqe(reg_.get());
  auto sa = sqe.Build(*table_, asc);
  auto sd = sqe.Build(*table_, desc);
  ASSERT_TRUE(sa.ok() && sd.ok());
  auto ra = (*sa)->groups()[0].Rows(0);
  auto rd = (*sd)->groups()[0].Rows(0);
  ASSERT_EQ(ra.size(), rd.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i], rd[rd.size() - 1 - i]);
  }
}

TEST_F(FormationTest, SequenceGroupByPartitionsByFareGroup) {
  SequenceSpec spec = BaseSpec();
  spec.group_by = {{"card-id", "fare-group"}};
  auto card_h = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"card-id", "fare-group"});
  (void)card_h->SetParent(0, "688", "regular");
  (void)card_h->SetParent(0, "23456", "regular");
  (void)card_h->SetParent(0, "1012", "student");
  (void)card_h->SetParent(0, "77", "student");
  reg_->Register("card-id", card_h);
  SequenceQueryEngine sqe(reg_.get());
  auto set = sqe.Build(*table_, spec);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ((*set)->groups().size(), 2u);
  EXPECT_EQ((*set)->groups()[0].num_sequences(), 2u);
  EXPECT_EQ((*set)->groups()[1].num_sequences(), 2u);
  auto labels0 = (*set)->KeyLabels((*set)->groups()[0].key());
  ASSERT_EQ(labels0.size(), 1u);
  EXPECT_TRUE(labels0[0] == "regular" || labels0[0] == "student");
}

TEST_F(FormationTest, ErrorsOnBadSpecs) {
  SequenceQueryEngine sqe(reg_.get());
  SequenceSpec no_cluster;
  no_cluster.sequence_by = "time";
  EXPECT_FALSE(sqe.Build(*table_, no_cluster).ok());
  SequenceSpec bad_order = BaseSpec();
  bad_order.sequence_by = "location";  // string: not a valid order attr
  EXPECT_FALSE(sqe.Build(*table_, bad_order).ok());
  SequenceSpec bad_attr = BaseSpec();
  bad_attr.cluster_by = {{"nope", "nope"}};
  EXPECT_FALSE(sqe.Build(*table_, bad_attr).ok());
}

TEST_F(FormationTest, SequenceCacheRoundTrip) {
  SequenceCache cache;
  SequenceSpec spec = BaseSpec();
  EXPECT_EQ(cache.Lookup(spec), nullptr);
  SequenceQueryEngine sqe(reg_.get());
  auto set = sqe.Build(*table_, spec);
  ASSERT_TRUE(set.ok());
  cache.InsertIfAbsent(spec, *set);
  EXPECT_EQ(cache.Lookup(spec), *set);
  SequenceSpec other = BaseSpec();
  other.ascending = false;
  EXPECT_EQ(cache.Lookup(other), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// --- Derived formations (DESIGN.md "Derived formations") -----------------

// Fig. 8 rows are one minute apart from 08:00 in card order: 688 holds
// minutes 0-5, 23456 6-9, 1012 10-11 and 77 12-15.
int64_t Minute(int m) { return MakeTimestamp(2007, 12, 25, 8, 0, 0) + 60 * m; }

ExprPtr TimeCmp(ExprOp op, int minute) {
  return Expr::Cmp(op, Expr::Col("time"),
                   Expr::Lit(Value::Timestamp(Minute(minute))));
}

void ExpectSameFormation(const SequenceGroupSet& a, const SequenceGroupSet& b,
                         const std::string& what) {
  ASSERT_EQ(a.groups().size(), b.groups().size()) << what;
  for (size_t gi = 0; gi < a.groups().size(); ++gi) {
    const SequenceGroup& ga = a.groups()[gi];
    const SequenceGroup& gb = b.groups()[gi];
    EXPECT_EQ(ga.key(), gb.key()) << what << " group " << gi;
    ASSERT_EQ(ga.offsets(), gb.offsets()) << what << " group " << gi;
    for (Sid s = 0; s < ga.num_sequences(); ++s) {
      auto ra = ga.Rows(s);
      auto rb = gb.Rows(s);
      EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
          << what << " group " << gi << " sid " << s;
    }
  }
  EXPECT_EQ(a.formed_rows(), b.formed_rows()) << what;
}

TEST_F(FormationTest, SplitWindowSeparatesSequenceByBoundsFromTheRest) {
  SequenceSpec spec = BaseSpec();
  ExprPtr in = Expr::Eq(Expr::Col("action"), Expr::Lit(Value::String("in")));
  spec.where = Expr::And(Expr::And(TimeCmp(ExprOp::kGe, 3), in),
                         TimeCmp(ExprOp::kLt, 9));
  auto split = SplitWindow(table_->schema(), spec);
  ASSERT_TRUE(split.has_value());
  ASSERT_EQ(split->window.size(), 2u);
  EXPECT_EQ(split->window[0]->op(), ExprOp::kGe);
  EXPECT_EQ(split->window[1]->op(), ExprOp::kLt);
  ASSERT_NE(split->base.where, nullptr);
  EXPECT_EQ(split->base.where->ToString(), in->ToString());
  SequenceSpec residual = BaseSpec();
  residual.where = in;
  EXPECT_EQ(split->base.CanonicalString(), residual.CanonicalString());

  SequenceSpec window_only = BaseSpec();
  window_only.where = TimeCmp(ExprOp::kGt, 3);
  auto bare = SplitWindow(table_->schema(), window_only);
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->base.where, nullptr);
}

TEST_F(FormationTest, SplitWindowRefusesWhatCannotBeDerived) {
  auto refused = [&](SequenceSpec spec) {
    return !SplitWindow(table_->schema(), spec).has_value();
  };
  SequenceSpec none = BaseSpec();
  EXPECT_TRUE(refused(none));
  SequenceSpec no_window = BaseSpec();
  no_window.where =
      Expr::Eq(Expr::Col("action"), Expr::Lit(Value::String("in")));
  EXPECT_TRUE(refused(no_window));
  SequenceSpec disjunction = BaseSpec();
  disjunction.where =
      Expr::Or(TimeCmp(ExprOp::kLt, 3), TimeCmp(ExprOp::kGe, 9));
  EXPECT_TRUE(refused(disjunction));
  SequenceSpec literal_first = BaseSpec();
  literal_first.where =
      Expr::Lt(Expr::Lit(Value::Timestamp(Minute(3))), Expr::Col("time"));
  EXPECT_TRUE(refused(literal_first));
  SequenceSpec double_order = BaseSpec();
  double_order.sequence_by = "amount";
  double_order.where = Expr::Ge(Expr::Col("amount"),
                                Expr::Lit(Value::Double(-1.0)));
  EXPECT_TRUE(refused(double_order));
  SequenceSpec foreign_group = BaseSpec();
  foreign_group.where = TimeCmp(ExprOp::kGe, 3);
  foreign_group.group_by = {{"location", "district"}};
  EXPECT_TRUE(refused(foreign_group));
  SequenceSpec cluster_group = foreign_group;
  cluster_group.group_by = {{"time", "day"}};
  EXPECT_FALSE(refused(cluster_group));
}

TEST_F(FormationTest, DeriveEqualsBuildForEveryWindowShape) {
  SequenceQueryEngine sqe(reg_.get());
  struct Case {
    const char* name;
    ExprPtr where;
  };
  const Case cases[] = {
      {"empty", TimeCmp(ExprOp::kGe, 100)},
      {"everything", TimeCmp(ExprOp::kGe, -5)},
      {"closed_on_rows", Expr::And(TimeCmp(ExprOp::kGe, 3),
                                   TimeCmp(ExprOp::kLe, 11))},
      {"open_on_rows", Expr::And(TimeCmp(ExprOp::kGt, 3),
                                 TimeCmp(ExprOp::kLt, 11))},
      {"lower_only", TimeCmp(ExprOp::kGt, 7)},
      {"upper_only", TimeCmp(ExprOp::kLt, 7)},
      {"one_row", Expr::And(TimeCmp(ExprOp::kGe, 8),
                            TimeCmp(ExprOp::kLe, 8))},
      {"with_residual",
       Expr::And(TimeCmp(ExprOp::kGe, 2),
                 Expr::And(Expr::Eq(Expr::Col("action"),
                                    Expr::Lit(Value::String("out"))),
                           TimeCmp(ExprOp::kLt, 14)))},
  };
  for (bool ascending : {true, false}) {
    for (const Case& c : cases) {
      SequenceSpec spec = BaseSpec();
      spec.ascending = ascending;
      spec.where = c.where;
      const std::string what =
          std::string(c.name) + (ascending ? " asc" : " desc");
      auto split = SplitWindow(table_->schema(), spec);
      ASSERT_TRUE(split.has_value()) << what;
      auto base = sqe.Build(*table_, split->base);
      ASSERT_TRUE(base.ok()) << what;
      auto derived = sqe.Derive(*table_, spec, *split, **base);
      ASSERT_TRUE(derived.ok()) << what << ": " << derived.status().ToString();
      auto built = sqe.Build(*table_, spec);
      ASSERT_TRUE(built.ok()) << what;
      ExpectSameFormation(**derived, **built, what);
    }
  }
}

// --- Extension: formation of appended rows (paper §6) ---------------------

// The fare-group hierarchy of the Fig. 8 cards: 688 and 23456 are regular,
// 1012 and 77 students.
std::shared_ptr<ConceptHierarchy> RegisterFareGroups(HierarchyRegistry& reg) {
  auto card_h = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"card-id", "fare-group"});
  (void)card_h->SetParent(0, "688", "regular");
  (void)card_h->SetParent(0, "23456", "regular");
  (void)card_h->SetParent(0, "1012", "student");
  (void)card_h->SetParent(0, "77", "student");
  reg.Register("card-id", card_h);
  return card_h;
}

// The formation of `spec` before any row: no group, GROUP BY bound.
std::shared_ptr<SequenceGroupSet> EmptySet(const EventTable& table,
                                           const HierarchyRegistry* reg,
                                           const SequenceSpec& spec) {
  std::vector<DimensionBinding> bindings;
  for (const LevelRef& r : spec.group_by) {
    bindings.push_back(*DimensionBinding::MakeForTable(table, reg, r));
  }
  return std::make_shared<SequenceGroupSet>(&table, spec.group_by,
                                            std::move(bindings));
}

// One Fig. 8-shaped event of `card` at `ts`.
void AppendEvent(EventTable& table, const char* card, int64_t ts) {
  ASSERT_TRUE(table
                  .AppendRow({Value::Timestamp(ts), Value::String(card),
                              Value::String("Pentagon"), Value::String("in"),
                              Value::Double(0.0)})
                  .ok());
}

int64_t Dec(int day, int hour, int minute) {
  return MakeTimestamp(2007, 12, day, hour, minute, 0);
}

TEST_F(FormationTest, ExtendOfAnEmptySetEqualsBuild) {
  RegisterFareGroups(*reg_);
  SequenceQueryEngine sqe(reg_.get());
  // Drops card 688's first five events.
  const RowFilter retention{0, Minute(5)};
  for (bool ascending : {true, false}) {
    for (bool grouped : {false, true}) {
      for (const RowFilter* filter : {static_cast<const RowFilter*>(nullptr),
                                      &retention}) {
        SequenceSpec spec = BaseSpec();
        spec.ascending = ascending;
        if (grouped) spec.group_by = {{"card-id", "fare-group"}};
        const std::string what = std::string(ascending ? "asc" : "desc") +
                                 (grouped ? " grouped" : "") +
                                 (filter != nullptr ? " retention" : "");
        auto built = sqe.Build(*table_, spec, filter);
        ASSERT_TRUE(built.ok()) << what;
        auto set = EmptySet(*table_, reg_.get(), spec);
        std::vector<GroupDelta> touched;
        auto extended = sqe.Extend(*table_, spec, filter, *set, &touched);
        ASSERT_TRUE(extended.ok()) << what;
        EXPECT_TRUE(*extended) << what;
        ExpectSameFormation(*set, **built, what);
        EXPECT_EQ(set->groups().size(), grouped ? 2u : 1u) << what;
        // Every group is new: each reports an old size of 0.
        ASSERT_EQ(touched.size(), set->groups().size()) << what;
        for (size_t gi = 0; gi < touched.size(); ++gi) {
          EXPECT_EQ(touched[gi].group_idx, gi) << what;
          EXPECT_EQ(touched[gi].old_count, 0u) << what;
        }
      }
    }
  }
}

TEST_F(FormationTest, ExtendAppendsNewKeysAtGroupTails) {
  ASSERT_TRUE(RegisterFareGroups(*reg_)->SetParent(0, "900", "student").ok());
  SequenceSpec spec = BaseSpec();
  spec.group_by = {{"card-id", "fare-group"}};
  SequenceQueryEngine sqe(reg_.get());
  auto built = sqe.Build(*table_, spec);
  ASSERT_TRUE(built.ok());
  SequenceGroupSet& set = **built;
  // Groups in the order of their smallest card: 688's regular, then 1012's
  // student, each with its two cards' sequences in card order.
  ASSERT_EQ(set.groups().size(), 2u);
  EXPECT_EQ(set.KeyLabels(set.groups()[0].key())[0], "regular");
  EXPECT_EQ(set.KeyLabels(set.groups()[1].key())[0], "student");

  // New cluster keys only: two new cards (900 is a student, 5 has no fare
  // group and rolls up to itself) and a second day of card 688.
  AppendEvent(*table_, "900", Dec(25, 9, 30));  // row 16
  AppendEvent(*table_, "5", Dec(25, 9, 10));    // row 17
  AppendEvent(*table_, "900", Dec(25, 9, 20));  // row 18
  AppendEvent(*table_, "688", Dec(26, 8, 0));   // row 19
  AppendEvent(*table_, "5", Dec(25, 9, 0));     // row 20
  std::vector<GroupDelta> touched;
  auto extended = sqe.Extend(*table_, spec, nullptr, set, &touched);
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  ASSERT_TRUE(*extended);
  EXPECT_EQ(set.formed_rows(), 21u);

  // The new sequences take the next sids of their groups, in cluster-key
  // order (688, then 900, then 5: card codes follow first appearance), and
  // the new group "5" goes after the existing ones.
  auto rows = [&](size_t gi, Sid s) {
    auto r = set.groups()[gi].Rows(s);
    return std::vector<RowId>(r.begin(), r.end());
  };
  ASSERT_EQ(set.groups().size(), 3u);
  EXPECT_EQ(set.KeyLabels(set.groups()[2].key())[0], "5");
  ASSERT_EQ(set.groups()[0].num_sequences(), 3u);
  EXPECT_EQ(rows(0, 0), (std::vector<RowId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(rows(0, 1), (std::vector<RowId>{6, 7, 8, 9}));
  EXPECT_EQ(rows(0, 2), (std::vector<RowId>{19}));
  ASSERT_EQ(set.groups()[1].num_sequences(), 3u);
  EXPECT_EQ(rows(1, 0), (std::vector<RowId>{10, 11}));
  EXPECT_EQ(rows(1, 1), (std::vector<RowId>{12, 13, 14, 15}));
  EXPECT_EQ(rows(1, 2), (std::vector<RowId>{18, 16}));
  ASSERT_EQ(set.groups()[2].num_sequences(), 1u);
  EXPECT_EQ(rows(2, 0), (std::vector<RowId>{20, 17}));

  ASSERT_EQ(touched.size(), 3u);
  EXPECT_EQ(touched[0].group_idx, 0u);
  EXPECT_EQ(touched[0].old_count, 2u);
  EXPECT_EQ(touched[1].group_idx, 1u);
  EXPECT_EQ(touched[1].old_count, 2u);
  EXPECT_EQ(touched[2].group_idx, 2u);
  EXPECT_EQ(touched[2].old_count, 0u);
}

TEST_F(FormationTest, ExtendRefusesATailRowOfAnExistingKey) {
  RegisterFareGroups(*reg_);
  SequenceSpec spec = BaseSpec();
  spec.group_by = {{"card-id", "fare-group"}};
  SequenceQueryEngine sqe(reg_.get());
  auto built = sqe.Build(*table_, spec);
  ASSERT_TRUE(built.ok());
  SequenceGroupSet& set = **built;
  auto sizes = [&] {
    std::vector<std::pair<size_t, size_t>> out;
    for (const SequenceGroup& g : set.groups()) {
      out.emplace_back(g.num_sequences(), g.total_events());
    }
    return out;
  };
  const auto before = sizes();

  // A new key first, then a later event of card 688 on its formed day.
  AppendEvent(*table_, "900", Dec(25, 9, 0));
  AppendEvent(*table_, "688", Dec(25, 9, 40));
  std::vector<GroupDelta> touched;
  auto extended = sqe.Extend(*table_, spec, nullptr, set, &touched);
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  EXPECT_FALSE(*extended);
  EXPECT_EQ(set.groups().size(), 2u);
  EXPECT_EQ(sizes(), before);
  EXPECT_EQ(set.formed_rows(), 16u);
  EXPECT_TRUE(touched.empty());
}

// Cache bookkeeping over generated transit data, where a day's window is
// about a quarter of a four-day base.
class DerivedCacheTest : public ::testing::Test {
 protected:
  DerivedCacheTest() {
    TransitParams p;
    p.num_passengers = 200;
    p.num_days = 4;
    data_ = GenerateTransit(p);
  }
  static SequenceSpec BaseSpec() {
    SequenceSpec s;
    s.cluster_by = {{"card-id", "individual"}, {"time", "day"}};
    s.sequence_by = "time";
    return s;
  }
  // The window of day `day` (0-based) of the data.
  static SequenceSpec Day(int day) {
    SequenceSpec spec = BaseSpec();
    const int64_t start = MakeTimestamp(2007, 10, 1 + day);
    spec.where = Expr::And(
        Expr::Ge(Expr::Col("time"), Expr::Lit(Value::Timestamp(start))),
        Expr::Lt(Expr::Col("time"),
                 Expr::Lit(Value::Timestamp(start + 86400))));
    return spec;
  }
  std::shared_ptr<SequenceGroupSet> BaseSet(bool ascending = true) {
    SequenceSpec spec = BaseSpec();
    spec.ascending = ascending;
    SequenceQueryEngine sqe(data_.hierarchies.get());
    return *sqe.Build(*data_.table, spec);
  }
  std::shared_ptr<SequenceGroupSet> Derived(const SequenceSpec& spec,
                                            SequenceGroupSet& base) {
    SequenceQueryEngine sqe(data_.hierarchies.get());
    auto split = SplitWindow(data_.table->schema(), spec);
    EXPECT_TRUE(split.has_value());
    auto set = sqe.Derive(*data_.table, spec, *split, base);
    EXPECT_TRUE(set.ok());
    return *set;
  }

  TransitData data_;
};

TEST_F(DerivedCacheTest, DerivedEntriesStayWithinTheirBaseBytesLruFirst) {
  MemoryGovernor governor(0);  // unlimited, still counted
  SequenceCache cache;
  cache.set_governor(&governor);
  const SequenceSpec base_spec = BaseSpec();
  auto base = cache.InsertIfAbsent(base_spec, BaseSet());
  const size_t base_bytes = base->ApproxBytes();

  std::vector<std::shared_ptr<SequenceGroupSet>> days;
  for (int d = 0; d < 3; ++d) {
    days.push_back(cache.InsertIfAbsent(Day(d), Derived(Day(d), *base),
                                        &base_spec));
  }
  const size_t three = days[0]->ApproxBytes() + days[1]->ApproxBytes() +
                       days[2]->ApproxBytes();
  ASSERT_LE(three, base_bytes);
  EXPECT_EQ(cache.DerivedBytes(base_spec), three);
  EXPECT_EQ(cache.size(), 4u);
  for (const auto& day : days) EXPECT_TRUE(cache.Holds(*day));
  EXPECT_EQ(governor.used(), base_bytes + three);
  // Day 1 becomes the least recently used; day 3 then overflows the bound
  // (the four days together hold the base's rows plus per-set overhead).
  ASSERT_EQ(cache.Lookup(Day(0)), days[0]);
  auto day3 =
      cache.InsertIfAbsent(Day(3), Derived(Day(3), *base), &base_spec);
  ASSERT_GT(three + day3->ApproxBytes(), base_bytes);
  EXPECT_EQ(cache.size(), 4u);  // day 1 alone left
  EXPECT_EQ(cache.Lookup(Day(1)), nullptr);
  EXPECT_FALSE(cache.Holds(*days[1]));
  EXPECT_EQ(cache.IndexCachesOf(*days[1]), nullptr);
  EXPECT_TRUE(cache.Holds(*days[0]));
  EXPECT_TRUE(cache.Holds(*days[2]));
  EXPECT_TRUE(cache.Holds(*day3));
  EXPECT_LE(cache.DerivedBytes(base_spec), base_bytes);
  EXPECT_TRUE(cache.Holds(*base));  // bases are never evicted
  EXPECT_EQ(governor.used(), base_bytes + three - days[1]->ApproxBytes() +
                                 day3->ApproxBytes());

  // Dropping the base takes its derived entries with it.
  cache.Erase(base_spec);
  for (const auto& set : {base, days[0], days[2], day3}) {
    EXPECT_FALSE(cache.Holds(*set));
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.DerivedBytes(base_spec), 0u);
  EXPECT_EQ(governor.used(), 0u);
}

// Each entry owns its formation's index caches: they charge the cache's
// governor, every lookup shares them while the set is cached, and they
// leave with the entry, refunding their charge once the last holder (a
// query still running on them) lets go.
TEST_F(DerivedCacheTest, IndexCachesLeaveWithTheirEntry) {
  MemoryGovernor governor(0);  // unlimited, still counted
  SequenceCache cache;
  cache.set_governor(&governor);
  const SequenceSpec base_spec = BaseSpec();
  auto base = cache.InsertIfAbsent(base_spec, BaseSet());
  auto day = cache.InsertIfAbsent(Day(0), Derived(Day(0), *base), &base_spec);
  ASSERT_TRUE(cache.Holds(*day));
  std::shared_ptr<FormationIndexCaches> caches = cache.IndexCachesOf(*day);
  ASSERT_NE(caches, nullptr);
  EXPECT_EQ(cache.IndexCachesOf(*day), caches);
  EXPECT_NE(cache.IndexCachesOf(*base), caches);
  EXPECT_EQ(caches->Find(0), nullptr);

  ScanStats stats;
  auto index = BuildIndex(
      &day->groups()[0], *day, data_.hierarchies.get(),
      IndexShape{PatternKind::kSubstring, {{"location", "station"}}}, &stats);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const size_t index_bytes = (*index)->ByteSize();
  ASSERT_GT(index_bytes, 0u);
  ASSERT_TRUE(caches->For(0)->Insert(*index).ok());
  EXPECT_EQ(caches->Find(0), caches->For(0));
  EXPECT_EQ(caches->TotalBytes(), index_bytes);
  const size_t base_bytes = base->ApproxBytes();
  EXPECT_EQ(governor.used(), base_bytes + day->ApproxBytes() + index_bytes);

  cache.Erase(Day(0));
  EXPECT_FALSE(cache.Holds(*day));
  EXPECT_EQ(cache.IndexCachesOf(*day), nullptr);
  EXPECT_EQ(governor.used(), base_bytes + index_bytes);  // still held here
  caches.reset();
  EXPECT_EQ(governor.used(), base_bytes);
  cache.Clear();
  EXPECT_EQ(governor.used(), 0u);
}

TEST_F(DerivedCacheTest, DerivedSetWithoutCachedBaseIsHandedBackUncached) {
  SequenceCache cache;
  auto base = BaseSet();
  const SequenceSpec base_spec = BaseSpec();
  auto derived = Derived(Day(1), *base);
  EXPECT_EQ(cache.InsertIfAbsent(Day(1), derived, &base_spec), derived);
  EXPECT_FALSE(cache.Holds(*derived));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(DerivedCacheTest, GovernorRejectEvictsDerivedEntriesBeforeGivingUp) {
  auto base = BaseSet();
  const SequenceSpec base_spec = BaseSpec();
  auto d0 = Derived(Day(0), *base);
  auto d1 = Derived(Day(1), *base);
  // Room for the base and one day, not two.
  MemoryGovernor governor(base->ApproxBytes() + d0->ApproxBytes() +
                          d1->ApproxBytes() - 1);
  SequenceCache cache;
  cache.set_governor(&governor);
  cache.InsertIfAbsent(base_spec, base);
  cache.InsertIfAbsent(Day(0), d0, &base_spec);
  cache.InsertIfAbsent(Day(1), d1, &base_spec);
  EXPECT_FALSE(cache.Holds(*d0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Holds(*d1));
  EXPECT_EQ(governor.used(), base->ApproxBytes() + d1->ApproxBytes());

  // An ordinary formation the budget cannot fit even without derived
  // entries: they are evicted, then the set is handed back uncached.
  SequenceSpec other = BaseSpec();
  other.ascending = false;
  auto big = BaseSet(/*ascending=*/false);
  ASSERT_GT(big->ApproxBytes(), d0->ApproxBytes() + d1->ApproxBytes());
  EXPECT_EQ(cache.InsertIfAbsent(other, big), big);
  EXPECT_FALSE(cache.Holds(*big));
  EXPECT_FALSE(cache.Holds(*d1));
  EXPECT_TRUE(cache.Holds(*base));
  EXPECT_EQ(governor.used(), base->ApproxBytes());
  cache.Clear();
  EXPECT_EQ(governor.used(), 0u);
}

TEST_F(DerivedCacheTest, RefreshRechargesAGrownEntryOnlyWhileCached) {
  MemoryGovernor governor(0);  // unlimited, still counted
  SequenceCache cache;
  cache.set_governor(&governor);
  const SequenceSpec spec = BaseSpec();
  auto set = cache.InsertIfAbsent(spec, BaseSet());
  const size_t before = governor.used();
  set->groups()[0].AddSequence(std::vector<uint32_t>{0, 1, 2});
  EXPECT_TRUE(cache.Refresh(spec, *set));
  EXPECT_EQ(governor.used(), set->ApproxBytes());
  EXPECT_GT(governor.used(), before);
  auto stranger = BaseSet();
  EXPECT_FALSE(cache.Refresh(spec, *stranger));
  EXPECT_EQ(cache.Lookup(spec), set);
}

}  // namespace
}  // namespace solap
