// explore: the paper's iterative S-OLAP use (§5, Table 1). Closed-loop
// analysts run sessions of nine steps over a clickstream; the index layer,
// the cuboid repository and JSON rendering do most of the work.
#include <set>
#include <thread>

#include "solap/common/timer.h"
#include "solap/engine/engine.h"
#include "solap/gen/clickstream.h"
#include "solap/net/query_routes.h"
#include "solap/parser/parser.h"
#include "solap/service/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kDataSessions = 200'000;
// Two analysts: with three on a four-vCPU shared machine, the analysts'
// queries contended with each other, and query_p95_ms over four seeds
// spread over 60% of its lowest value, against under 30% with two.
constexpr size_t kClients = 2;
constexpr size_t kServiceThreads = 4;
// Fixed work: analyst sessions per second of --seconds, about the rate two
// analysts sustain, so a pass lasts about --seconds.
constexpr size_t kSessionsPerSecond = 130;
// Seeded share of answers re-checked counter-based, and each client's
// budget of checks.
constexpr double kCheckShare = 0.02;
constexpr size_t kChecksPerClient = 12;

constexpr const char* kInitialQuery = R"(
SELECT COUNT(*) FROM Event
CLUSTER BY session-id AT session-id
SEQUENCE BY request-time ASCENDING
CUBOID BY SUBSTRING (X, Y)
  WITH X AS page AT page-category, Y AS page AT page-category
  LEFT-MAXIMALITY (x1, y1)
)";

/// One session operation: the request body and the operation it encodes,
/// so a checked answer's spec can be rebuilt outside the service.
struct Step {
  std::string body;
  solap::SessionOp op;
};

Step MakeStep(std::string body, std::string verb, std::string symbol,
              solap::LevelRef ref = {}, std::vector<std::string> labels = {}) {
  Step s;
  s.body = std::move(body);
  s.op.op = std::move(verb);
  s.op.symbol = std::move(symbol);
  s.op.ref = std::move(ref);
  s.op.labels = std::move(labels);
  return s;
}

/// A sampled answer and the steps that led to it.
struct Checked {
  std::vector<Step> steps;  // empty: the initial query itself
  Reply reply;
};

std::vector<std::string> DistinctLabels(const Reply& r, size_t dim,
                                        size_t limit) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const CellOut& c : r.cells) {
    if (dim < c.key.size() && seen.insert(c.key[dim]).second) {
      out.push_back(c.key[dim]);
      if (out.size() == limit) break;
    }
  }
  return out;
}

class Explore : public Workload {
 public:
  explicit Explore(const RunConfig& cfg) : cfg_(cfg) {}

  std::string data_note() const override {
    return std::to_string(data_.table->num_rows()) + " click events";
  }

  void Teardown() override {
    endpoint_.reset();
    service_.reset();
    engine_.reset();
    data_ = {};
  }

  solap::Status Setup() override {
    solap::ClickstreamParams params;
    params.num_sessions = kDataSessions;
    params.seed = cfg_.seed;
    data_ = solap::GenerateClickstream(params);
    engine_ = std::make_unique<solap::SOlapEngine>(
        static_cast<const solap::EventTable*>(data_.table.get()),
        data_.hierarchies.get());
    solap::ServiceOptions sopts;
    sopts.num_threads = kServiceThreads;
    service_ = std::make_unique<solap::QueryService>(engine_.get(), sopts);
    endpoint_ = std::make_unique<Endpoint>(
        solap::net::BuildSolapRouter(service_.get()));
    SOLAP_ASSIGN_OR_RETURN(initial_, solap::ParseQuery(kInitialQuery));
    return engine_->WarmSequenceCache(initial_.seq);
  }

  PassResult Run(bool traced) override {
    checked_.clear();
    const size_t sessions =
        kSessionsPerSecond * static_cast<size_t>(cfg_.seconds);
    const solap::ScanStats before = engine_->StatsSnapshot();
    std::vector<PassLog> logs(kClients);
    std::vector<std::vector<Checked>> checks(kClients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point cap =
        start + std::chrono::milliseconds(
                    static_cast<int64_t>(cfg_.pass_cap_s * 1000));
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RunClient(&logs[c], [&] {
          for (size_t s = c; s < sessions && Clock::now() < cap;
               s += kClients) {
            RunSession(s, traced, &logs[c], &checks[c]);
          }
        });
      });
    }
    for (std::thread& t : clients) t.join();
    PassResult pass;
    pass.wall_s = MsBetween(start, Clock::now()) / 1000.0;
    for (size_t c = 0; c < kClients; ++c) {
      pass.log.Merge(std::move(logs[c]));
      for (Checked& k : checks[c]) checked_.push_back(std::move(k));
    }
    pass.log.op_ms = pass.log.query_ms;
    pass.log.op_sent = pass.log.query_sent;
    pass.ops_per_s = static_cast<double>(pass.log.queries) / pass.wall_s;
    pass.stats = StatsDelta(engine_->StatsSnapshot(), before);
    pass.governor_mb = static_cast<double>(engine_->governor().used()) / 1e6;
    pass.index_cache_mb = static_cast<double>(engine_->IndexCacheBytes()) / 1e6;
    return pass;
  }

  void Check(PassResult* pass) override {
    // A fresh engine over the same data answers every sampled spec
    // counter-based: the CB == II invariant, cell for cell.
    solap::SOlapEngine fresh(
        static_cast<const solap::EventTable*>(data_.table.get()),
        data_.hierarchies.get());
    for (const Checked& k : checked_) {
      solap::SessionManager mirror(data_.hierarchies.get());
      const solap::SessionId id = mirror.Open(initial_);
      solap::Result<solap::CuboidSpec> spec = initial_;
      for (const Step& step : k.steps) spec = mirror.Apply(id, step.op);
      std::string what;
      if (!spec.ok()) {
        what = spec.status().ToString();
      } else {
        auto ref = fresh.Execute(*spec, solap::ExecStrategy::kCounterBased);
        what = ref.ok() ? CompareCells(k.reply, **ref)
                        : ref.status().ToString();
      }
      ++pass->log.attempted;
      if (!what.empty()) {
        pass->log.Fail("explore check after " +
                       std::to_string(k.steps.size()) + " steps: " + what);
      }
    }
  }

 private:
  /// One analyst session: the initial query, then eight operations whose
  /// slice labels are drawn from the previous answer.
  void RunSession(size_t index, bool traced, PassLog* log,
                  std::vector<Checked>* checks) {
    std::mt19937_64 rng = Rng(cfg_.seed, 1000 + index);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    auto pick = [&](const std::vector<std::string>& v) {
      return v[std::uniform_int_distribution<size_t>(0, v.size() - 1)(rng)];
    };

    if (traced) {
      solap::Timer t;
      auto parsed = solap::ParseStatement(kInitialQuery);
      log->parse_ms += t.ElapsedMs();
      ++log->parses;
      if (!parsed.ok()) log->Fail(parsed.status().ToString());
    }
    Reply prev = endpoint_->Post(
        "/query", kInitialQuery,
        {{"x-solap-session", "new"}, {"x-solap-limit", "0"}}, traced);
    log->RecordQuery(prev, prev.wall_ms);
    if (!prev.ok()) return;
    auto sample = [&](std::vector<Step> at, const Reply& r) {
      if (unit(rng) < kCheckShare && checks->size() < kChecksPerClient) {
        checks->push_back({std::move(at), r});
      }
    };
    sample({}, prev);
    const std::string session = std::to_string(prev.session);

    std::vector<Step> steps;
    for (int k = 0; k < 8; ++k) {
      Step step;
      switch (k) {
        case 0:
        case 1: {
          const char* sym = k == 0 ? "X" : "Y";
          auto labels = DistinctLabels(prev, k == 0 ? 0 : 1, 0);
          if (labels.empty()) return;
          std::string label = pick(labels);
          step = MakeStep(std::string("slice ") + sym + " " + label, "slice",
                          sym, {}, {label});
          break;
        }
        case 2:
          step = MakeStep("drilldown Y", "pdrilldown", "Y");
          break;
        case 3: {
          auto pages = DistinctLabels(prev, 1, 20);
          if (pages.empty()) return;
          std::string page = pick(pages);
          step = MakeStep("slice Y " + page, "slice", "Y", {}, {page});
          break;
        }
        case 4:
          step = MakeStep("append Z page raw-page", "append", "Z",
                          {"page", "raw-page"});
          break;
        case 5:
          step = MakeStep("rollup Z", "prollup", "Z");
          break;
        case 6:
          step = MakeStep("prepend W page page-category", "prepend", "W",
                          {"page", "page-category"});
          break;
        default:
          step = MakeStep("detail", "detail", "");
          break;
      }
      steps.push_back(step);
      Reply r = endpoint_->Post("/query", step.body,
                                {{"x-solap-session", session}}, traced);
      log->RecordQuery(r, r.wall_ms);
      if (!r.ok()) return;
      sample(steps, r);
      prev = std::move(r);
    }
  }

  RunConfig cfg_;
  solap::ClickstreamData data_;
  solap::CuboidSpec initial_;
  std::unique_ptr<solap::SOlapEngine> engine_;
  std::unique_ptr<solap::QueryService> service_;
  std::unique_ptr<Endpoint> endpoint_;
  std::vector<Checked> checked_;
};

}  // namespace

std::unique_ptr<Workload> MakeExplore(const RunConfig& cfg) {
  return std::make_unique<Explore>(cfg);
}

}  // namespace perfbench
