// Streaming ingestion (docs/INGESTION.md): IngestRows edge cases, epoch
// semantics, retention interaction, index appends, cuboid patching, and the
// service/HTTP ingest surface. The recurring oracle: after any sequence of
// appends, a live engine's answer must be BIT-IDENTICAL to a fresh engine
// rebuilt over the same rows — compared through EncodeShardPartial, whose
// output is a pure function of cuboid content.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "paper_fixtures.h"
#include "solap/cube/partial_codec.h"
#include "solap/engine/engine.h"
#include "solap/engine/sharded_engine.h"
#include "solap/net/http_client.h"
#include "solap/net/query_routes.h"
#include "solap/net/server.h"
#include "solap/service/query_service.h"

namespace solap {
namespace {

using testing::Fig8Hierarchies;
using testing::Fig8Table;

// SUBSTRING(X) at station level, COUNT — patchable (no regex, no iceberg).
CuboidSpec SimpleSpec() {
  CuboidSpec s;
  s.seq.cluster_by = {{"card-id", "card-id"}};
  s.seq.sequence_by = "time";
  s.symbols = {"X"};
  s.dims = {PatternDim{"X", {"location", "station"}, {}, ""}};
  return s;
}

std::string Canonical(const SCuboid& c) {
  return EncodeShardPartial(c, ScanStats{});
}

// One event row in Fig8Table's schema.
std::vector<Value> Row(int64_t t, const std::string& card,
                       const std::string& station, const std::string& action,
                       double amount) {
  return {Value::Timestamp(t), Value::String(card), Value::String(station),
          Value::String(action), Value::Double(amount)};
}

// A fresh table holding the first `rows` rows of `src` (all of them when
// rows == npos): the rebuild side of the bit-identity oracle.
std::shared_ptr<EventTable> CopyPrefix(const EventTable& src, size_t rows) {
  auto out = std::make_shared<EventTable>(src.schema());
  const size_t n = std::min(rows, src.num_rows());
  const size_t cols = src.schema().num_fields();
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      row.push_back(src.GetValue(static_cast<RowId>(r), static_cast<int>(c)));
    }
    EXPECT_TRUE(out->AppendRow(row).ok());
  }
  return out;
}

class IngestTest : public ::testing::Test {
 protected:
  IngestTest()
      : table_(Fig8Table()),
        reg_(Fig8Hierarchies()),
        engine_(table_.get(), reg_.get()) {}

  std::string FreshAnswer(ExecStrategy strategy = ExecStrategy::kAuto) {
    auto fresh_table = CopyPrefix(*table_, table_->num_rows());
    SOlapEngine fresh(fresh_table.get(), reg_.get());
    auto r = fresh.Execute(SimpleSpec(), strategy);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return Canonical(**r);
  }

  std::shared_ptr<EventTable> table_;
  std::shared_ptr<HierarchyRegistry> reg_;
  SOlapEngine engine_;
};

TEST_F(IngestTest, AppendReflectsInQueriesAndAdvancesEpoch) {
  EXPECT_EQ(engine_.epoch(), 0u);
  auto before = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(before.ok());

  const int64_t t = MakeTimestamp(2007, 12, 26, 9, 0, 0);
  ASSERT_TRUE(engine_
                  .IngestRows({Row(t, "9001", "Pentagon", "in", 0.0),
                               Row(t + 60, "9001", "Wheaton", "out", -2.0)})
                  .ok());
  EXPECT_EQ(engine_.epoch(), 2u);

  uint64_t seen_epoch = 0;
  ExecControl control;
  control.epoch_out = &seen_epoch;
  auto after = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto, control);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(seen_epoch, 2u);
  EXPECT_NE(Canonical(**before), Canonical(**after));
  EXPECT_EQ(Canonical(**after), FreshAnswer());
}

TEST_F(IngestTest, NewDictionaryCodeInAppendedBatch) {
  // "Rosslyn" does not exist in any dictionary yet; the append must mint
  // the code and queries must label the new cell correctly.
  const int64_t t = MakeTimestamp(2007, 12, 26, 10, 0, 0);
  ASSERT_TRUE(
      engine_.IngestRows({Row(t, "9002", "Rosslyn", "in", 0.0)}).ok());
  auto r = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(r.ok());
  bool found = false;
  for (const auto& [key, cell] : (*r)->cells()) {
    if ((*r)->LabelOf(0, key[0]) == "Rosslyn") {
      found = true;
      EXPECT_EQ(cell.count, 1);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(Canonical(**r), FreshAnswer());
}

TEST_F(IngestTest, ZeroEventAppendDoesNotAdvanceEpoch) {
  ASSERT_TRUE(engine_.IngestRows({}).ok());
  EXPECT_EQ(engine_.epoch(), 0u);
}

TEST_F(IngestTest, AppendIntoEvictedWindowStaysInvisible) {
  // Evict everything before Dec 26; the Fig. 8 rows (Dec 25) disappear.
  const int64_t cutoff = MakeTimestamp(2007, 12, 26, 0, 0, 0);
  ASSERT_TRUE(engine_.EvictBefore("time", cutoff).ok());
  EXPECT_EQ(engine_.epoch(), 2u);
  auto empty = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ((*empty)->num_cells(), 0u);

  // An append whose rows fall BELOW the retention cutoff lands in the
  // table (append-only storage) but stays invisible to formation — for an
  // evicted card and a new one alike.
  const int64_t old_t = MakeTimestamp(2007, 12, 25, 9, 0, 0);
  ASSERT_TRUE(engine_
                  .IngestRows({Row(old_t, "688", "Pentagon", "in", 0.0),
                               Row(old_t + 60, "9003", "Deanwood", "in", 0.0)})
                  .ok());
  EXPECT_EQ(engine_.epoch(), 4u);
  auto still_empty = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(still_empty.ok());
  EXPECT_EQ((*still_empty)->num_cells(), 0u);

  // Rows at or past the cutoff become visible as usual.
  ASSERT_TRUE(
      engine_.IngestRows({Row(cutoff + 60, "9003", "Deanwood", "in", 0.0)})
          .ok());
  auto visible = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ((*visible)->num_cells(), 1u);
}

TEST_F(IngestTest, MonotoneRetentionIgnoresLowerCutoff) {
  const int64_t cutoff = MakeTimestamp(2007, 12, 26, 0, 0, 0);
  ASSERT_TRUE(engine_.EvictBefore("time", cutoff).ok());
  ASSERT_TRUE(engine_.EvictBefore("time", cutoff - 86400).ok());
  auto r = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_cells(), 0u);  // the higher cutoff still applies
}

TEST_F(IngestTest, EvictBeforeRejectsNonTimeColumn) {
  Status s = engine_.EvictBefore("location", 0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.epoch(), 0u);
}

TEST_F(IngestTest, IngestRequiresMutableConstructor) {
  SOlapEngine readonly(static_cast<const EventTable*>(table_.get()),
                       reg_.get());
  Status s = readonly.IngestRows({Row(0, "1", "Pentagon", "in", 0.0)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(IngestTest, InvalidRowRejectsWholeBatchAndEpochHolds) {
  // Second row has a type mismatch; validate-first Append must reject the
  // batch atomically and the epoch must not advance.
  std::vector<std::vector<Value>> batch = {
      Row(1, "9004", "Pentagon", "in", 0.0),
      {Value::Timestamp(2), Value::Int64(7), Value::String("Wheaton"),
       Value::String("out"), Value::Double(0.0)}};
  const std::string before = FreshAnswer();
  EXPECT_FALSE(engine_.IngestRows(batch).ok());
  EXPECT_EQ(engine_.epoch(), 0u);
  auto r = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Canonical(**r), before);
}

// Ingest appends the new sids into the cached complete index in place: the
// next II query reuses that index, builds no list, and answers exactly as
// a rebuild does.
TEST_F(IngestTest, CachedIndexGrowsInPlace) {
  EngineOptions opts;
  opts.repository_capacity_bytes = 0;  // every query reaches the index
  SOlapEngine engine(table_.get(), reg_.get(), opts);
  ASSERT_TRUE(engine.Execute(SimpleSpec(), ExecStrategy::kInvertedIndex).ok());
  ASSERT_GT(engine.IndexCacheBytes(), 0u);
  const int64_t t = MakeTimestamp(2007, 12, 26, 11, 0, 0);
  ASSERT_TRUE(engine
                  .IngestRows({Row(t, "9005", "Pentagon", "in", 0.0),
                               Row(t + 60, "9005", "Clarendon", "out", -2.0)})
                  .ok());
  EXPECT_EQ(engine.StatsSnapshot().formation_invalidations, 0u);
  EXPECT_GT(engine.IndexCacheBytes(), 0u);

  ScanStats live_stats;
  ExecControl control;
  control.stats_out = &live_stats;
  auto live =
      engine.Execute(SimpleSpec(), ExecStrategy::kInvertedIndex, control);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_GT(live_stats.index_cache_hits, 0u);
  EXPECT_EQ(live_stats.lists_built, 0u);
  EXPECT_EQ(Canonical(**live), FreshAnswer(ExecStrategy::kInvertedIndex));
}

// Every batch reaches the cached indices, on a base formation and on a
// time window derived from it. With the repository off, the II query after
// a new-key batch answers from the indices the batch appended to (no list
// built, cache hits) and equals a rebuild; an existing-key batch
// invalidates the formation, and the query after it rebuilds.
TEST_F(IngestTest, IiQueriesReadTheIndicesEachBatchAppendedTo) {
  // The window drops card 688's events, so the derived set stays smaller
  // than its base and the cache keeps it.
  CuboidSpec windowed = SimpleSpec();
  windowed.seq.where = Expr::And(
      Expr::Ge(Expr::Col("time"), Expr::Lit(Value::Timestamp(
                                      MakeTimestamp(2007, 12, 25, 8, 6, 0)))),
      Expr::Lt(Expr::Col("time"), Expr::Lit(Value::Timestamp(
                                      MakeTimestamp(2007, 12, 27, 0, 0, 0)))));
  EngineOptions opts;
  opts.repository_capacity_bytes = 0;  // every query reaches the index
  for (const CuboidSpec& spec : {SimpleSpec(), windowed}) {
    const std::string which = spec.seq.where == nullptr ? "base" : "window";
    auto table = Fig8Table();
    SOlapEngine engine(table.get(), reg_.get(), opts);
    ASSERT_TRUE(engine.Execute(spec, ExecStrategy::kInvertedIndex).ok());
    for (int batch = 0; batch < 6; ++batch) {
      const bool new_key = batch % 2 == 0;
      const std::string card =
          new_key ? std::to_string(9100 + batch) : "23456";
      const std::string what = which + " batch " + std::to_string(batch);
      const int64_t t = MakeTimestamp(2007, 12, 26, 8 + batch, 0, 0);
      ASSERT_TRUE(engine
                      .IngestRows({Row(t, card, "Pentagon", "in", 0.0),
                                   Row(t + 60, card, "Wheaton", "out", -2.0)})
                      .ok());

      ScanStats stats;
      ExecControl control;
      control.stats_out = &stats;
      auto live = engine.Execute(spec, ExecStrategy::kInvertedIndex, control);
      ASSERT_TRUE(live.ok()) << what << ": " << live.status().ToString();
      auto fresh_table = CopyPrefix(*table, table->num_rows());
      SOlapEngine fresh(fresh_table.get(), reg_.get(), opts);
      auto want = fresh.Execute(spec, ExecStrategy::kInvertedIndex);
      ASSERT_TRUE(want.ok()) << what;
      EXPECT_EQ(Canonical(**live), Canonical(**want)) << what;
      if (new_key) {
        EXPECT_EQ(stats.lists_built, 0u) << what;
        EXPECT_GT(stats.index_cache_hits, 0u) << what;
      } else {
        EXPECT_GT(stats.lists_built, 0u) << what;
      }
    }
  }
}

TEST_F(IngestTest, CachedCuboidIsPatchedForNewClusterKeys) {
  auto warm = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(warm.ok());
  const int64_t t = MakeTimestamp(2007, 12, 26, 12, 0, 0);
  ASSERT_TRUE(engine_
                  .IngestRows({Row(t, "9006", "Glenmont", "in", 0.0),
                               Row(t + 60, "9006", "Wheaton", "out", -2.0)})
                  .ok());
  // The batch introduced only a NEW cluster key, so the cached cuboid was
  // delta-patched rather than thrown away.
  EXPECT_GT(engine_.StatsSnapshot().cuboid_patches, 0u);
  auto patched = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(Canonical(**patched), FreshAnswer());
}

TEST_F(IngestTest, ExistingClusterKeyInvalidatesAndRebuilds) {
  auto warm = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(warm.ok());
  // Card 688 already has a sequence: conservative invalidation path.
  const int64_t t = MakeTimestamp(2007, 12, 26, 13, 0, 0);
  ASSERT_TRUE(
      engine_.IngestRows({Row(t, "688", "Deanwood", "in", 0.0)}).ok());
  EXPECT_GT(engine_.StatsSnapshot().formation_invalidations, 0u);
  auto rebuilt = engine_.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(Canonical(**rebuilt), FreshAnswer());
}

TEST_F(IngestTest, ShardedEngineRoutesAppendsToOwningShards) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}}) {
    auto table = Fig8Table();
    EngineOptions opts;
    opts.shards = shards;
    opts.shard_by = "card-id";
    ShardedEngine engine(table.get(), reg_.get(), opts);
    auto warm = engine.Execute(SimpleSpec(), ExecStrategy::kAuto);
    ASSERT_TRUE(warm.ok());

    const int64_t t = MakeTimestamp(2007, 12, 26, 14, 0, 0);
    ASSERT_TRUE(engine
                    .IngestRows({Row(t, "9007", "Pentagon", "in", 0.0),
                                 Row(t + 60, "9007", "Rosslyn", "out", -2.0),
                                 Row(t + 90, "688", "Rosslyn", "in", 0.0)})
                    .ok());
    EXPECT_EQ(engine.epoch(), 2u);

    uint64_t seen_epoch = 0;
    ExecControl control;
    control.epoch_out = &seen_epoch;
    auto r = engine.Execute(SimpleSpec(), ExecStrategy::kAuto, control);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(seen_epoch, 2u);

    auto fresh_table = CopyPrefix(*table, table->num_rows());
    SOlapEngine fresh(fresh_table.get(), reg_.get());
    auto f = fresh.Execute(SimpleSpec(), ExecStrategy::kAuto);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(Canonical(**r), Canonical(**f)) << shards << " shards";
  }
}

TEST_F(IngestTest, ShardedEvictBeforeAppliesOnEveryShard) {
  auto table = Fig8Table();
  EngineOptions opts;
  opts.shards = 2;
  opts.shard_by = "card-id";
  ShardedEngine engine(table.get(), reg_.get(), opts);
  const int64_t cutoff = MakeTimestamp(2007, 12, 26, 0, 0, 0);
  ASSERT_TRUE(engine.EvictBefore("time", cutoff).ok());
  auto r = engine.Execute(SimpleSpec(), ExecStrategy::kAuto);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_cells(), 0u);
}

// Cuboids are cached in the shards that compute them: an ingest of new
// cluster keys patches the owning shard's cached partial (the other
// shard's stays exact), and the repeat query is two shard repository hits
// that scan no sequence and still equal a fresh rebuild.
TEST_F(IngestTest, ShardedCachedCuboidIsPatchedInItsShard) {
  auto table = Fig8Table();
  EngineOptions opts;
  opts.shards = 2;
  opts.shard_by = "card-id";
  ShardedEngine engine(table.get(), reg_.get(), opts);
  ASSERT_TRUE(engine.Execute(SimpleSpec(), ExecStrategy::kCounterBased).ok());

  const int64_t t = MakeTimestamp(2007, 12, 26, 16, 0, 0);
  ASSERT_TRUE(engine
                  .IngestRows({Row(t, "9010", "Glenmont", "in", 0.0),
                               Row(t + 60, "9010", "Wheaton", "out", -2.0),
                               Row(t + 120, "9011", "Pentagon", "in", 0.0)})
                  .ok());
  EXPECT_GT(engine.StatsSnapshot().cuboid_patches, 0u);

  ScanStats repeat;
  ExecControl control;
  control.stats_out = &repeat;
  auto r = engine.Execute(SimpleSpec(), ExecStrategy::kCounterBased, control);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(repeat.repository_hits, 2u);
  EXPECT_EQ(repeat.sequences_scanned, 0u);

  auto fresh_table = CopyPrefix(*table, table->num_rows());
  SOlapEngine fresh(fresh_table.get(), reg_.get());
  auto f = fresh.Execute(SimpleSpec(), ExecStrategy::kCounterBased);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(Canonical(**r), Canonical(**f));
}

// Write-side counters are counted once, in the executor that did the
// write, and summed into the facade totals: the shard that grew patches
// its cached cuboid, and each event counts once.
TEST_F(IngestTest, ShardedEngineSumsShardWriteCounters) {
  auto table = Fig8Table();
  EngineOptions opts;
  opts.shards = 2;
  opts.shard_by = "card-id";
  ShardedEngine engine(table.get(), reg_.get(), opts);
  QueryService service(&engine);
  // A cuboid cached on every shard, for the owning shard to patch.
  ASSERT_TRUE(
      engine.Execute(SimpleSpec(), ExecStrategy::kInvertedIndex).ok());
  const int64_t t = MakeTimestamp(2007, 12, 26, 17, 0, 0);
  auto ingested = service.Ingest({Row(t, "9012", "Pentagon", "in", 0.0),
                                  Row(t + 60, "9012", "Clarendon", "out",
                                      -2.0)});
  ASSERT_TRUE(ingested.status.ok()) << ingested.status.ToString();
  const ScanStats totals = engine.StatsSnapshot();
  EXPECT_EQ(totals.ingested_events, 2u);
  EXPECT_GT(totals.cuboid_patches, 0u);
  EXPECT_EQ(totals.stale_cuboid_invalidations, 0u);
  EXPECT_EQ(service.metrics().counter("ingest_events")->Value(), 2u);
}

TEST_F(IngestTest, ServiceIngestCountsEventsAndReportsEpoch) {
  QueryService service(&engine_);
  auto result = service.Ingest(
      {Row(MakeTimestamp(2007, 12, 26, 15, 0, 0), "9008", "Pentagon", "in",
           0.0)});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.events, 1u);
  EXPECT_EQ(result.epoch, 2u);
  service.RefreshResourceMetrics();
  const std::string metrics = service.metrics().ToPrometheus();
  EXPECT_NE(metrics.find("solap_ingest_events 1"), std::string::npos);
  EXPECT_NE(metrics.find("solap_epoch 2"), std::string::npos);
}

TEST_F(IngestTest, HttpIngestReflectsInQueriesWithoutReload) {
  QueryService service(&engine_);
  net::HttpServer server(net::BuildSolapRouter(&service), {});
  ASSERT_TRUE(server.Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);

  const std::string body =
      "{\"rows\":[[1198684800,\"9009\",\"Rosslyn\",\"in\",0.0],"
      "[1198684860,\"9009\",\"Pentagon\",\"out\",-2.0]]}";
  auto resp = net::HttpExchange("127.0.0.1", server.port(), "POST", "/ingest",
                                body, {{"Content-Type", "application/json"}},
                                deadline);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"epoch\":2"), std::string::npos);

  auto query = net::HttpExchange(
      "127.0.0.1", server.port(), "POST", "/query",
      "SELECT COUNT(*) FROM S CLUSTER BY card-id AT card-id "
      "SEQUENCE BY time CUBOID BY SUBSTRING (X) "
      "WITH X AS location AT station ALL-MATCHED",
      {}, deadline);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->status, 200) << query->body;
  EXPECT_NE(query->body.find("Rosslyn"), std::string::npos);

  // A malformed batch is rejected whole with 400.
  auto bad = net::HttpExchange("127.0.0.1", server.port(), "POST", "/ingest",
                               "{\"rows\":[[\"not\",\"enough\"]]}", {},
                               deadline);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  server.Stop();
}

}  // namespace
}  // namespace solap
