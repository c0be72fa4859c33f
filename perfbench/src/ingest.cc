// ingest: a live transit feed beside dashboards. A writer posts
// time-ordered 8-event batches to /ingest on a fixed schedule while two
// open-loop readers re-issue a fixed set of dashboard queries. This is the
// only workload on the write path: table append, formation extension and
// invalidation, index delta segments, cuboid patching, the background
// merger, and readers sharing the engine's epoch gate with the writer.
#include <algorithm>
#include <numeric>
#include <thread>

#include "solap/common/timer.h"
#include "solap/engine/engine.h"
#include "solap/gen/transit.h"
#include "solap/net/json.h"
#include "solap/net/query_routes.h"
#include "solap/parser/parser.h"
#include "solap/service/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPassengers = 4'000;
constexpr size_t kDays = 7;
constexpr size_t kStreamDays = 2;
constexpr size_t kBatchEvents = 8;
constexpr size_t kServiceThreads = 4;
// The feed's history: its first kHistoryEvents events (in time order) are
// appended during set-up, so the measured batches arrive once the day's
// returning legs have begun. About nine in ten batches then touch an
// existing sequence and invalidate the formation; the rest only add new
// sequences (formation extension, cuboid patching). Started at the feed's
// first event instead, the pass would be mostly extension batches for its
// first hundred batches and then switch over.
constexpr size_t kHistoryEvents = 1300;
// One schedule drives the writer and both readers (README.md "ingest"):
// slot s starts with batch s; kReadOffset into the slot one dashboard query
// is due, sent by reader s % kReaders and cycling through the dashboard.
// That query re-forms what the batch invalidated and still ends well before
// the next batch; denser schedules left no headroom, so one slow slot
// delayed the slots after it. Work is fixed: --seconds * 1000 / kSlotMs
// slots.
constexpr double kSlotMs = 100;
constexpr double kReadOffset = 0.15;
constexpr size_t kReaders = 2;

constexpr const char* kPrefix =
    "SELECT COUNT(*) FROM Event\n"
    "CLUSTER BY card-id AT individual, time AT day\n"
    "SEQUENCE BY time ASCENDING\n";

/// The dashboard: station footfall (entries per station), two patchable
/// COUNT pair queries, the round trip with its matching predicate, and an
/// ICEBERG variant that cannot be patched.
std::vector<std::string> Dashboard() {
  const std::string pair =
      "  LEFT-MAXIMALITY (x1, y1)\n"
      "  WITH x1.action = \"in\" AND y1.action = \"out\"\n";
  return {
      std::string(kPrefix) +
          "CUBOID BY SUBSTRING (X)\n"
          "  WITH X AS location AT station\n"
          "  LEFT-MAXIMALITY (x1)\n"
          "  WITH x1.action = \"in\"\n",
      std::string(kPrefix) +
          "CUBOID BY SUBSTRING (X, Y)\n"
          "  WITH X AS location AT station, Y AS location AT station\n" +
          pair,
      std::string(kPrefix) +
          "CUBOID BY SUBSTRING (X, Y)\n"
          "  WITH X AS location AT district, Y AS location AT district\n" +
          pair,
      std::string(kPrefix) +
          "CUBOID BY SUBSTRING (X, Y, Y, X)\n"
          "  WITH X AS location AT station, Y AS location AT station\n"
          "  LEFT-MAXIMALITY (x1, y1, y2, x2)\n"
          "  WITH x1.action = \"in\" AND y1.action = \"out\" AND\n"
          "       y2.action = \"in\" AND x2.action = \"out\"\n",
      std::string(kPrefix) +
          "CUBOID BY SUBSTRING (X, Y)\n"
          "  WITH X AS location AT district, Y AS location AT district\n" +
          pair + "ICEBERG 20\n",
  };
}

/// The footfall query goes through the inverted index, so a complete index
/// is cached. Batches that only add sequences add single first legs (the
/// return leg comes minutes later, in another batch), so only a
/// one-position index like this one gains delta segments from them, which
/// the background merger then folds. The other queries keep the
/// optimizer's choice, which is counter-based for every one of them.
std::vector<std::pair<std::string, std::string>> DashboardHeaders(
    size_t query) {
  if (query == 0) return {{"x-solap-strategy", "ii"}};
  return {};
}

std::string JsonValueOf(const solap::Value& v) {
  switch (v.type()) {
    case solap::ValueType::kNull:
      return "null";
    case solap::ValueType::kString:
      return solap::net::JsonString(v.str());
    case solap::ValueType::kDouble: {
      // Keep a fraction or exponent so the value decodes as a double.
      std::string s = Num(v.dbl());
      if (s.find_first_of(".eE") == std::string::npos) s += ".0";
      return s;
    }
    default:
      return std::to_string(v.int64());
  }
}

class Ingest : public Workload {
 public:
  explicit Ingest(const RunConfig& cfg) : cfg_(cfg) {}

  std::string data_note() const override {
    return std::to_string(rows_before_) + " transit events before the feed, " +
           std::to_string(bodies_.size()) + " batches of " +
           std::to_string(kBatchEvents) + " events";
  }
  bool writes() const override { return true; }

  void Teardown() override {
    endpoint_.reset();
    service_.reset();
    engine_.reset();
    data_ = {};
  }

  solap::Status Setup() override {
    solap::TransitParams params;
    params.num_passengers = kPassengers;
    params.num_days = kDays;
    params.seed = cfg_.seed;
    data_ = solap::GenerateTransit(params);
    engine_ = std::make_unique<solap::SOlapEngine>(data_.table.get(),
                                                   data_.hierarchies.get());
    solap::ServiceOptions sopts;
    sopts.num_threads = kServiceThreads;
    service_ = std::make_unique<solap::QueryService>(engine_.get(), sopts);
    endpoint_ = std::make_unique<Endpoint>(
        solap::net::BuildSolapRouter(service_.get()));

    // The feed: the next days from the same generator under another
    // seed, in time order, cut into fixed-size batches.
    solap::TransitParams more = params;
    more.num_days = kStreamDays;
    more.start_day = params.start_day + static_cast<int>(kDays);
    more.seed = cfg_.seed ^ 0x9e3779b97f4a7c15ULL;
    solap::TransitData stream = solap::GenerateTransit(more);
    const solap::EventTable& t = *stream.table;
    const int time_col = t.schema().FieldIndex("time");
    std::vector<solap::RowId> order(t.num_rows());
    std::iota(order.begin(), order.end(), solap::RowId{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](solap::RowId a, solap::RowId b) {
                       return t.Int64At(a, time_col) < t.Int64At(b, time_col);
                     });
    const size_t skip = std::min(kHistoryEvents, order.size());
    std::vector<std::vector<solap::Value>> history;
    for (size_t i = 0; i < skip; ++i) {
      std::vector<solap::Value> row;
      for (size_t c = 0; c < t.schema().num_fields(); ++c) {
        row.push_back(t.GetValue(order[i], static_cast<int>(c)));
      }
      history.push_back(std::move(row));
    }
    SOLAP_RETURN_NOT_OK(engine_->IngestRows(history));
    const size_t batches = std::min(
        static_cast<size_t>(cfg_.seconds * 1000.0 / kSlotMs),
        (order.size() - skip) / kBatchEvents);
    bodies_.clear();
    for (size_t b = 0; b < batches; ++b) {
      std::string body = "{\"rows\":[";
      for (size_t i = 0; i < kBatchEvents; ++i) {
        const solap::RowId row = order[skip + b * kBatchEvents + i];
        body += i ? ",[" : "[";
        for (size_t c = 0; c < t.schema().num_fields(); ++c) {
          if (c) body += ',';
          body += JsonValueOf(t.GetValue(row, static_cast<int>(c)));
        }
        body += ']';
      }
      body += "]}";
      bodies_.push_back(std::move(body));
    }

    // Warm-up: form the dashboard's sequences and cache its answers.
    queries_ = Dashboard();
    for (size_t i = 0; i < queries_.size(); ++i) {
      Reply r = endpoint_->Post("/query", queries_[i], DashboardHeaders(i),
                                false);
      if (!r.ok()) return solap::Status::Internal("warm-up: " + r.error);
    }
    return solap::Status::OK();
  }

  PassResult Run(bool traced) override {
    rows_before_ = data_.table->num_rows();
    const solap::ScanStats before = engine_->StatsSnapshot();
    PassLog writer_log;
    // Per acknowledged batch, for ops_per_s.
    std::vector<double> batch_events, batch_ms;
    std::vector<Clock::time_point> batch_sent;
    std::vector<PassLog> reader_logs(kReaders);
    const Clock::time_point start = Clock::now();
    const Clock::time_point cap =
        start + std::chrono::milliseconds(
                    static_cast<int64_t>(cfg_.pass_cap_s * 1000));

    const size_t slots = bodies_.size();
    auto due_at = [&](double slot) {
      return start + std::chrono::microseconds(
                         static_cast<int64_t>(slot * kSlotMs * 1000.0));
    };

    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        PassLog& log = reader_logs[r];
        RunClient(&log, [&] {
          for (size_t s = r; s < slots && Clock::now() < cap; s += kReaders) {
            const Clock::time_point due =
                due_at(static_cast<double>(s) + kReadOffset);
            std::this_thread::sleep_until(due);
            log.max_send_late_ms =
                std::max(log.max_send_late_ms, MsBetween(due, Clock::now()));
            const size_t qi = s % queries_.size();
            const std::string& q = queries_[qi];
            if (traced) {
              solap::Timer t;
              auto parsed = solap::ParseStatement(q);
              log.parse_ms += t.ElapsedMs();
              ++log.parses;
              if (!parsed.ok()) log.Fail(parsed.status().ToString());
            }
            Reply reply =
                endpoint_->Post("/query", q, DashboardHeaders(qi), traced);
            // Open loop: latency counts from the scheduled send time.
            log.RecordQuery(reply, MsBetween(due, Clock::now()));
          }
        });
      });
    }

    for (size_t b = 0; b < slots && Clock::now() < cap; ++b) {
      const Clock::time_point due = due_at(static_cast<double>(b));
      std::this_thread::sleep_until(due);
      writer_log.max_send_late_ms = std::max(writer_log.max_send_late_ms,
                                             MsBetween(due, Clock::now()));
      if (traced) {
        solap::Timer t;
        auto parsed = solap::net::JsonParse(bodies_[b]);
        writer_log.decode_ms += t.ElapsedMs();
        if (!parsed.ok()) writer_log.Fail(parsed.status().ToString());
      }
      Reply reply = endpoint_->Post("/ingest", bodies_[b], {}, traced);
      writer_log.RecordIngest(reply, MsBetween(due, Clock::now()));
      if (reply.ok()) {
        batch_events.push_back(static_cast<double>(reply.events));
        batch_ms.push_back(reply.wall_ms);
        batch_sent.push_back(reply.sent);
      }
      if (traced) {
        writer_log.delta_bytes +=
            static_cast<double>(engine_->DeltaSnapshot().bytes);
      }
    }
    for (std::thread& t : readers) t.join();
    PassResult pass;
    pass.wall_s = MsBetween(start, Clock::now()) / 1000.0;
    pass.ops_per_s = TailRate(batch_events, batch_ms, batch_sent);

    pass.log.Merge(std::move(writer_log));
    for (PassLog& l : reader_logs) pass.log.Merge(std::move(l));

    if (engine_->DeltaSnapshot().segments > 0) {
      solap::Timer t;
      (void)service_->MergeDeltasNow();
      pass.merge_ms = t.ElapsedMs();
    }
    pass.stats = StatsDelta(engine_->StatsSnapshot(), before);
    pass.governor_mb = static_cast<double>(engine_->governor().used()) / 1e6;
    pass.index_cache_mb = static_cast<double>(engine_->IndexCacheBytes()) / 1e6;
    return pass;
  }

  void Check(PassResult* pass) override {
    // Every acknowledged event is in the table, and nothing else is.
    const size_t growth = data_.table->num_rows() - rows_before_;
    ++pass->log.attempted;
    if (growth != pass->log.events) {
      pass->log.Fail("table grew by " + std::to_string(growth) +
                     " rows but /ingest acknowledged " +
                     std::to_string(pass->log.events) + " events");
    }
    // Each dashboard query's final answer equals a fresh engine's over the
    // final table.
    solap::SOlapEngine fresh(
        static_cast<const solap::EventTable*>(data_.table.get()),
        data_.hierarchies.get());
    for (size_t i = 0; i < queries_.size(); ++i) {
      const std::string& q = queries_[i];
      auto headers = DashboardHeaders(i);
      headers.emplace_back("x-solap-limit", "0");
      Reply reply = endpoint_->Post("/query", q, std::move(headers), false);
      ++pass->log.attempted;
      if (!reply.ok()) {
        pass->log.Fail("final dashboard answer: " + reply.error);
        continue;
      }
      auto spec = solap::ParseQuery(q);
      auto ref = fresh.Execute(*spec, solap::ExecStrategy::kCounterBased);
      const std::string what =
          ref.ok() ? CompareCells(reply, **ref) : ref.status().ToString();
      if (!what.empty()) pass->log.Fail("final dashboard answer: " + what);
    }
  }

 private:
  RunConfig cfg_;
  solap::TransitData data_;
  std::unique_ptr<solap::SOlapEngine> engine_;
  std::unique_ptr<solap::QueryService> service_;
  std::unique_ptr<Endpoint> endpoint_;
  std::vector<std::string> bodies_;
  std::vector<std::string> queries_;
  size_t rows_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest(const RunConfig& cfg) {
  return std::make_unique<Ingest>(cfg);
}

}  // namespace perfbench
