// scan: one-off ad hoc questions over a transit log. Every query has its
// own time window and is forced counter-based, so sequence formation, CB
// pattern scans and the 4-shard scatter/gather do the work while the index
// layer and the cuboid repository stay idle.
#include <cstdio>
#include <set>
#include <thread>

#include "solap/common/timer.h"
#include "solap/engine/engine.h"
#include "solap/engine/sharded_engine.h"
#include "solap/gen/transit.h"
#include "solap/net/query_routes.h"
#include "solap/parser/parser.h"
#include "solap/service/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPassengers = 20'000;
constexpr size_t kDays = 7;
constexpr size_t kShards = 4;
// One client: each query already runs on the kShards scatter threads, so a
// second client put eight busy threads on a four-vCPU machine, and its
// latencies measured the scheduler's queue more than the query.
constexpr size_t kClients = 1;
constexpr size_t kServiceThreads = 4;
// Fixed work: distinct queries per second of --seconds. The sequence cache
// keeps every window's formation (no eviction), so the count, not the
// clock, bounds memory.
constexpr size_t kQueriesPerSecond = 25;
// Seeded share of answers compared with a 1-shard engine, and each
// client's budget of checks.
constexpr double kCheckShare = 0.05;
constexpr size_t kChecksPerClient = 12;

/// "2007-10-DDTHH:MM" for a minute offset from the data's first day.
std::string DateTime(int64_t minute) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "2007-10-%02dT%02d:%02d",
                static_cast<int>(1 + minute / 1440),
                static_cast<int>((minute / 60) % 24),
                static_cast<int>(minute % 60));
  return buf;
}

std::string QueryText(size_t index, int64_t from, int64_t to) {
  std::string q = "SELECT COUNT(*) FROM Event\nWHERE time >= " +
                  DateTime(from) + " AND time < " + DateTime(to) +
                  "\nCLUSTER BY card-id AT individual, time AT day\n"
                  "SEQUENCE BY time ASCENDING\n";
  if (index % 2 == 0) {
    q += "CUBOID BY SUBSEQUENCE (X, Y, Z)\n"
         "  WITH X AS location AT station, Y AS location AT district,\n"
         "       Z AS location AT district\n"
         "  LEFT-MAXIMALITY (x1, y1, z1)\n";
  } else {
    q += "CUBOID BY SUBSTRING (X, Y, Y, X)\n"
         "  WITH X AS location AT station, Y AS location AT station\n"
         "  LEFT-MAXIMALITY (x1, y1, y2, x2)\n"
         "  WITH x1.action = \"in\" AND y1.action = \"out\" AND\n"
         "       y2.action = \"in\" AND x2.action = \"out\"\n";
  }
  return q;
}

class Scan : public Workload {
 public:
  explicit Scan(const RunConfig& cfg) : cfg_(cfg) {}

  std::string data_note() const override {
    return std::to_string(data_.table->num_rows()) + " transit events, " +
           std::to_string(kShards) + " shards";
  }

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
    solap::EngineOptions opts;
    opts.shards = kShards;
    opts.shard_by = "card-id";
    opts.exec_threads = 4;
    engine_ = std::make_unique<solap::ShardedEngine>(
        static_cast<const solap::EventTable*>(data_.table.get()),
        data_.hierarchies.get(), opts);
    solap::ServiceOptions sopts;
    sopts.num_threads = kServiceThreads;
    service_ = std::make_unique<solap::QueryService>(engine_.get(), sopts);
    endpoint_ = std::make_unique<Endpoint>(
        solap::net::BuildSolapRouter(service_.get()));

    // The query list: distinct minute-granularity windows of 6-48 h.
    queries_.clear();
    const size_t n = kQueriesPerSecond * static_cast<size_t>(cfg_.seconds);
    std::mt19937_64 rng = Rng(cfg_.seed, 2);
    std::uniform_int_distribution<int64_t> start(0, kDays * 1440 - 1);
    std::uniform_int_distribution<int64_t> width(6 * 60, 48 * 60);
    std::set<std::pair<int64_t, int64_t>> seen;
    while (queries_.size() < n) {
      const int64_t from = start(rng);
      const int64_t to = from + width(rng);
      if (!seen.insert({from, to}).second) continue;
      queries_.push_back(QueryText(queries_.size(), from, to));
    }
    return solap::Status::OK();
  }

  PassResult Run(bool traced) override {
    checked_.clear();
    const solap::ScanStats before = engine_->StatsSnapshot();
    std::vector<PassLog> logs(kClients);
    std::vector<std::vector<std::pair<size_t, Reply>>> checks(kClients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point cap =
        start + std::chrono::milliseconds(
                    static_cast<int64_t>(cfg_.pass_cap_s * 1000));
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        PassLog& log = logs[c];
        RunClient(&log, [&] {
          std::mt19937_64 rng = Rng(cfg_.seed, 3 + c);
          std::uniform_real_distribution<double> unit(0.0, 1.0);
          for (size_t i = c; i < queries_.size() && Clock::now() < cap;
               i += kClients) {
            if (traced) {
              solap::Timer t;
              auto parsed = solap::ParseStatement(queries_[i]);
              log.parse_ms += t.ElapsedMs();
              ++log.parses;
              if (!parsed.ok()) log.Fail(parsed.status().ToString());
            }
            Reply r = endpoint_->Post("/query", queries_[i],
                                      {{"x-solap-strategy", "cb"}}, traced);
            log.RecordQuery(r, r.wall_ms);
            if (unit(rng) < kCheckShare && r.ok() &&
                checks[c].size() < kChecksPerClient) {
              checks[c].emplace_back(i, std::move(r));
            }
          }
        });
      });
    }
    for (std::thread& t : clients) t.join();
    PassResult pass;
    pass.wall_s = MsBetween(start, Clock::now()) / 1000.0;
    for (size_t c = 0; c < kClients; ++c) {
      pass.log.Merge(std::move(logs[c]));
      for (auto& k : checks[c]) checked_.push_back(std::move(k));
    }
    pass.log.op_ms = pass.log.query_ms;
    pass.log.op_sent = pass.log.query_sent;
    pass.ops_per_s = static_cast<double>(pass.log.queries) / pass.wall_s;
    pass.stats = StatsDelta(engine_->StatsSnapshot(), before);
    pass.governor_mb = static_cast<double>(engine_->MemUsed()) / 1e6;
    pass.index_cache_mb = static_cast<double>(engine_->IndexCacheBytes()) / 1e6;
    return pass;
  }

  void Check(PassResult* pass) override {
    // The 4-shard answers must equal a 1-shard engine's over the same data.
    solap::SOlapEngine single(
        static_cast<const solap::EventTable*>(data_.table.get()),
        data_.hierarchies.get());
    for (const auto& [index, reply] : checked_) {
      std::string what;
      auto spec = solap::ParseQuery(queries_[index]);
      if (!spec.ok()) {
        what = spec.status().ToString();
      } else {
        auto ref = single.Execute(*spec, solap::ExecStrategy::kCounterBased);
        what = ref.ok() ? CompareCells(reply, **ref) : ref.status().ToString();
      }
      ++pass->log.attempted;
      if (!what.empty()) {
        pass->log.Fail("scan check of query " + std::to_string(index) + ": " +
                       what);
      }
    }
  }

 private:
  RunConfig cfg_;
  solap::TransitData data_;
  std::unique_ptr<solap::ShardedEngine> engine_;
  std::unique_ptr<solap::QueryService> service_;
  std::unique_ptr<Endpoint> endpoint_;
  std::vector<std::string> queries_;
  std::vector<std::pair<size_t, Reply>> checked_;
};

}  // namespace

std::unique_ptr<Workload> MakeScan(const RunConfig& cfg) {
  return std::make_unique<Scan>(cfg);
}

}  // namespace perfbench
