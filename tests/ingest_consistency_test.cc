// The streaming-ingestion consistency contract (docs/INGESTION.md): a query
// stream running CONCURRENTLY with an append stream must produce, for every
// epoch it observes, an answer bit-identical to a fresh engine rebuilt over
// exactly the rows committed at that epoch.
//
// The oracle exploits two structural facts. The table is append-only, so
// the first k rows at any instant equal the first k rows of the final
// table. And only ingest commits advance the epoch (+2 each; merges and
// dictionary syncs abandon their write slot), so with a fixed batch size R
// and B base rows, a reader observing epoch e saw exactly the first
// B + R * (e / 2) rows — no matter how the writers interleaved.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "paper_fixtures.h"
#include "solap/cube/partial_codec.h"
#include "solap/engine/engine.h"
#include "solap/engine/sharded_engine.h"
#include "solap/hierarchy/concept_hierarchy.h"

namespace solap {
namespace {

using testing::Fig8Hierarchies;
using testing::Fig8Table;

constexpr size_t kBatch = 2;             // rows per committed batch (R)
constexpr size_t kWriters = 2;
constexpr size_t kBatchesPerWriter = 10;
constexpr size_t kReaders = 2;

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

EngineOptions BaseOptions() {
  EngineOptions o;
  o.auto_delta_merge = false;  // merges run via the explicit kicker thread
  return o;
}

// Writer w's batch b: two events of one sequence. Unique timestamps per
// (writer, batch) keep event order deterministic; most batches mint a NEW
// card (the patch path), every fifth extends card "688" (the invalidation
// path).
std::vector<std::vector<Value>> WriterBatch(size_t w, size_t b) {
  const int64_t t =
      MakeTimestamp(2007, 12, 26, 0, 0, 0) + static_cast<int64_t>(w) * 100000 +
      static_cast<int64_t>(b) * 600;
  const std::string card = (b % 5 == 4)
                               ? "688"
                               : "w" + std::to_string(w) + "-" +
                                     std::to_string(b);
  const char* station = (b % 2 == 0) ? "Pentagon" : "Wheaton";
  return {{Value::Timestamp(t), Value::String(card), Value::String(station),
           Value::String("in"), Value::Double(0.0)},
          {Value::Timestamp(t + 60), Value::String(card),
           Value::String("Clarendon"), Value::String("out"),
           Value::Double(-2.0)}};
}

// A fresh table holding the first `rows` rows of `src`.
std::shared_ptr<EventTable> CopyPrefix(const EventTable& src, size_t rows) {
  auto out = std::make_shared<EventTable>(src.schema());
  const size_t cols = src.schema().num_fields();
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      row.push_back(src.GetValue(static_cast<RowId>(r), static_cast<int>(c)));
    }
    EXPECT_TRUE(out->AppendRow(row).ok());
  }
  return out;
}

// Thread-safe (epoch -> canonical answer) journal. Two concurrent reads
// observing the same epoch must agree bit-for-bit; the journal checks that
// on insert and keeps one exemplar per epoch for the post-hoc rebuild.
class EpochJournal {
 public:
  void Record(uint64_t epoch, const std::string& canonical) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = seen_.emplace(epoch, canonical);
    if (!inserted) {
      EXPECT_EQ(it->second, canonical)
          << "two readers disagreed at epoch " << epoch;
    }
  }
  std::map<uint64_t, std::string> Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, std::string> seen_;
};

// Drives writers/readers/merge-kicker against `execute` + `ingest` +
// `merge`, then verifies every observed epoch against `rebuild`.
struct Harness {
  std::function<Result<std::string>(uint64_t* epoch_out)> execute;
  std::function<Status(const std::vector<std::vector<Value>>&)> ingest;
  std::function<Status()> merge;
  // Fresh-engine answer over the first `rows` rows of the final table.
  std::function<std::string(size_t rows)> rebuild;

  void Run(size_t base_rows) {
    EpochJournal journal;
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;

    for (size_t rdr = 0; rdr < kReaders; ++rdr) {
      threads.emplace_back([&] {
        do {
          const bool last = done.load();
          uint64_t epoch = 0;
          auto r = execute(&epoch);
          if (!r.ok()) {
            ADD_FAILURE() << "reader: " << r.status().ToString();
            return;
          }
          EXPECT_EQ(epoch % 2, 0u) << "reader observed an odd epoch";
          journal.Record(epoch, *r);
          if (last) break;  // one guaranteed read after the final commit
        } while (true);
      });
    }
    threads.emplace_back([&] {  // merge kicker: never advances the epoch
      while (!done.load()) {
        Status s = merge();
        EXPECT_TRUE(s.ok()) << s.ToString();
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (size_t b = 0; b < kBatchesPerWriter; ++b) {
          Status s = ingest(WriterBatch(w, b));
          EXPECT_TRUE(s.ok()) << "writer " << w << ": " << s.ToString();
        }
      });
    }
    for (auto& t : writers) t.join();
    done.store(true);
    for (auto& t : threads) t.join();

    const auto seen = journal.Snapshot();
    ASSERT_FALSE(seen.empty());
    // The final epoch must have been observed (the guaranteed last read).
    EXPECT_EQ(seen.rbegin()->first, 2 * kWriters * kBatchesPerWriter);
    for (const auto& [epoch, canonical] : seen) {
      const size_t rows = base_rows + kBatch * (epoch / 2);
      EXPECT_EQ(rebuild(rows), canonical)
          << "epoch " << epoch << " (" << rows
          << " rows) diverged from a fresh rebuild";
    }
  }
};

TEST(IngestConsistencyTest, MonolithicEngineBitIdenticalPerEpoch) {
  auto table = Fig8Table();
  auto reg = Fig8Hierarchies();
  SOlapEngine engine(table.get(), reg.get(), BaseOptions());
  const size_t base_rows = table->num_rows();

  Harness h;
  h.execute = [&](uint64_t* epoch_out) -> Result<std::string> {
    ExecControl control;
    control.epoch_out = epoch_out;
    SOLAP_ASSIGN_OR_RETURN(
        auto cuboid, engine.Execute(SimpleSpec(), ExecStrategy::kAuto, control));
    return Canonical(*cuboid);
  };
  h.ingest = [&](const std::vector<std::vector<Value>>& rows) {
    return engine.IngestRows(rows);
  };
  h.merge = [&] { return engine.MergeDeltasNow(); };
  h.rebuild = [&](size_t rows) {
    auto fresh_table = CopyPrefix(*table, rows);
    SOlapEngine fresh(fresh_table.get(), reg.get(), BaseOptions());
    auto r = fresh.Execute(SimpleSpec(), ExecStrategy::kAuto);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Canonical(**r) : std::string();
  };
  h.Run(base_rows);
}

TEST(IngestConsistencyTest, ShardedEngineBitIdenticalPerEpoch) {
  auto table = Fig8Table();
  auto reg = Fig8Hierarchies();
  EngineOptions opts = BaseOptions();
  opts.shards = 2;
  opts.shard_by = "card-id";
  ShardedEngine engine(table.get(), reg.get(), opts);
  const size_t base_rows = table->num_rows();

  Harness h;
  h.execute = [&](uint64_t* epoch_out) -> Result<std::string> {
    ExecControl control;
    control.epoch_out = epoch_out;
    SOLAP_ASSIGN_OR_RETURN(
        auto cuboid, engine.Execute(SimpleSpec(), ExecStrategy::kAuto, control));
    return Canonical(*cuboid);
  };
  h.ingest = [&](const std::vector<std::vector<Value>>& rows) {
    return engine.IngestRows(rows);
  };
  h.merge = [&] { return engine.MergeDeltasNow(); };
  h.rebuild = [&](size_t rows) {
    auto fresh_table = CopyPrefix(*table, rows);
    ShardedEngine fresh(fresh_table.get(), reg.get(), opts);
    auto r = fresh.Execute(SimpleSpec(), ExecStrategy::kAuto);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Canonical(**r) : std::string();
  };
  h.Run(base_rows);
}

// A 2-shard facade answering a spec it cannot scatter (CLUSTER BY card-id
// at the coarser fare-group level could split a sequence across shards):
// every read goes to the monolithic fallback, which shares the facade's
// table and must be caught up on each append. New cards roll up to
// themselves (new cluster keys: the extend-and-patch path); card "688"
// rolls up to the existing "regular" key (the invalidation path).
TEST(IngestConsistencyTest, ShardedFallbackBitIdenticalPerEpoch) {
  auto table = Fig8Table();
  auto reg = Fig8Hierarchies();
  auto fares = std::make_shared<ConceptHierarchy>(
      std::vector<std::string>{"card-id", "fare-group"});
  ASSERT_TRUE(fares->SetParent(0, "688", "regular").ok());
  ASSERT_TRUE(fares->SetParent(0, "23456", "regular").ok());
  ASSERT_TRUE(fares->SetParent(0, "1012", "student").ok());
  ASSERT_TRUE(fares->SetParent(0, "77", "student").ok());
  reg->Register("card-id", fares);
  CuboidSpec spec = SimpleSpec();
  spec.seq.cluster_by = {{"card-id", "fare-group"}};
  EngineOptions opts = BaseOptions();
  opts.shards = 2;
  opts.shard_by = "card-id";
  ShardedEngine engine(table.get(), reg.get(), opts);
  ASSERT_FALSE(engine.Shardable(spec));
  const size_t base_rows = table->num_rows();

  Harness h;
  h.execute = [&](uint64_t* epoch_out) -> Result<std::string> {
    ExecControl control;
    control.epoch_out = epoch_out;
    SOLAP_ASSIGN_OR_RETURN(
        auto cuboid, engine.Execute(spec, ExecStrategy::kAuto, control));
    return Canonical(*cuboid);
  };
  h.ingest = [&](const std::vector<std::vector<Value>>& rows) {
    return engine.IngestRows(rows);
  };
  h.merge = [&] { return engine.MergeDeltasNow(); };
  h.rebuild = [&](size_t rows) {
    auto fresh_table = CopyPrefix(*table, rows);
    SOlapEngine fresh(fresh_table.get(), reg.get(), BaseOptions());
    auto r = fresh.Execute(spec, ExecStrategy::kAuto);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Canonical(**r) : std::string();
  };
  h.Run(base_rows);
  // The fallback was maintained incrementally, not rebuilt from scratch on
  // every append.
  EXPECT_GT(engine.Monolith()->StatsSnapshot().cuboid_patches, 0u);
}

// A windowed spec takes the derived-formation path (DESIGN.md "Derived
// formations"): its formation is sliced out of the cached unwindowed base,
// and both are ordinary cache entries the appends extend or invalidate.
// The window starts inside card 688's Fig. 8 rows and ends between the
// two writers' time ranges, so batches bring new keys inside the window
// (writer 0), new keys outside it (writer 1), and rows for the existing key
// 688 both inside (writer 0) and outside (writer 1).
CuboidSpec WindowedSpec() {
  CuboidSpec s = SimpleSpec();
  s.seq.where = Expr::And(
      Expr::Ge(Expr::Col("time"),
               Expr::Lit(Value::Timestamp(MakeTimestamp(2007, 12, 25, 8, 3)))),
      Expr::Lt(Expr::Col("time"),
               Expr::Lit(Value::Timestamp(MakeTimestamp(2007, 12, 27)))));
  return s;
}

TEST(IngestConsistencyTest, WindowedFormationBitIdenticalPerEpoch) {
  auto table = Fig8Table();
  auto reg = Fig8Hierarchies();
  SOlapEngine engine(table.get(), reg.get(), BaseOptions());
  const size_t base_rows = table->num_rows();
  // Cache the windowed formation (and its base) and its cuboid first.
  ScanStats first;
  ExecControl control;
  control.stats_out = &first;
  ASSERT_TRUE(
      engine.Execute(WindowedSpec(), ExecStrategy::kCounterBased, control)
          .ok());
  ASSERT_EQ(first.formations_derived, 1u);

  Harness h;
  h.execute = [&](uint64_t* epoch_out) -> Result<std::string> {
    ExecControl c;
    c.epoch_out = epoch_out;
    SOLAP_ASSIGN_OR_RETURN(
        auto cuboid, engine.Execute(WindowedSpec(), ExecStrategy::kAuto, c));
    return Canonical(*cuboid);
  };
  h.ingest = [&](const std::vector<std::vector<Value>>& rows) {
    return engine.IngestRows(rows);
  };
  h.merge = [&] { return engine.MergeDeltasNow(); };
  h.rebuild = [&](size_t rows) {
    auto fresh_table = CopyPrefix(*table, rows);
    SOlapEngine fresh(fresh_table.get(), reg.get(), BaseOptions());
    CuboidSpec oracle = WindowedSpec();
    oracle.seq.where = Expr::Not(Expr::Not(oracle.seq.where));
    auto r = fresh.Execute(oracle, ExecStrategy::kAuto);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Canonical(**r) : std::string();
  };
  h.Run(base_rows);
}

TEST(IngestConsistencyTest, ShardedWindowedFormationBitIdenticalPerEpoch) {
  auto table = Fig8Table();
  auto reg = Fig8Hierarchies();
  EngineOptions opts = BaseOptions();
  opts.shards = 2;
  opts.shard_by = "card-id";
  ShardedEngine engine(table.get(), reg.get(), opts);
  const size_t base_rows = table->num_rows();
  ASSERT_TRUE(engine.Execute(WindowedSpec(), ExecStrategy::kAuto).ok());

  Harness h;
  h.execute = [&](uint64_t* epoch_out) -> Result<std::string> {
    ExecControl c;
    c.epoch_out = epoch_out;
    SOLAP_ASSIGN_OR_RETURN(
        auto cuboid, engine.Execute(WindowedSpec(), ExecStrategy::kAuto, c));
    return Canonical(*cuboid);
  };
  h.ingest = [&](const std::vector<std::vector<Value>>& rows) {
    return engine.IngestRows(rows);
  };
  h.merge = [&] { return engine.MergeDeltasNow(); };
  h.rebuild = [&](size_t rows) {
    auto fresh_table = CopyPrefix(*table, rows);
    ShardedEngine fresh(fresh_table.get(), reg.get(), opts);
    CuboidSpec oracle = WindowedSpec();
    oracle.seq.where = Expr::Not(Expr::Not(oracle.seq.where));
    auto r = fresh.Execute(oracle, ExecStrategy::kAuto);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Canonical(**r) : std::string();
  };
  h.Run(base_rows);
  EXPECT_GT(engine.StatsSnapshot().formations_derived, 0u);
}

}  // namespace
}  // namespace solap
