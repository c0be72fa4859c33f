// The concurrent S-OLAP query service: turns one SOlapEngine into a
// multi-client endpoint. Queries are admitted against a bounded queue
// (overload sheds with ResourceExhausted rather than queueing unboundedly),
// executed on a fixed-size thread pool under per-query deadlines with
// cooperative cancellation, and measured into a MetricsRegistry. Client
// sessions (service/session.h) carry iterative query state so consecutive
// specs hit the engine's cuboid repository and index caches.
//
// Lock hierarchy (acquire strictly downward; see DESIGN.md "Service
// layer"): service single-flight map -> pool queue -> engine stats/cache
// maps -> repository / sequence cache / group index caches -> group view
// mutex -> hierarchy mutex. No callback ever re-enters the service, so the
// hierarchy is acyclic by construction.
#ifndef SOLAP_SERVICE_QUERY_SERVICE_H_
#define SOLAP_SERVICE_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "solap/common/metrics.h"
#include "solap/common/stats.h"
#include "solap/common/stop.h"
#include "solap/engine/engine.h"
#include "solap/engine/sharded_engine.h"
#include "solap/service/session.h"
#include "solap/common/thread_pool.h"

namespace solap {

/// Tuning knobs of the query service.
struct ServiceOptions {
  size_t num_threads = 4;
  /// Admission bound: queries submitted while this many are already
  /// pending (queued or executing) are shed with ResourceExhausted.
  size_t max_queue_depth = 64;
  /// Deadline applied to queries that do not set their own (0 = none).
  std::chrono::milliseconds default_timeout{0};
  /// Trace sampling: every Nth submission records a span tree retrievable
  /// via LastSampledTrace(). 0 (the default) disables sampling — the hot
  /// path then never touches the tracing machinery.
  size_t trace_sample_every = 0;
  SessionManagerOptions sessions;
};

/// Per-submission overrides.
struct SubmitOptions {
  ExecStrategy strategy = ExecStrategy::kAuto;
  /// Overrides ServiceOptions::default_timeout when positive.
  std::chrono::milliseconds timeout{0};
  /// Caller-owned span sink (EXPLAIN ANALYZE). Must outlive the response
  /// future. Takes precedence over service-level sampling.
  TraceContext* trace = nullptr;
};

/// Everything the service knows about one answered query.
struct QueryResponse {
  Status status = Status::OK();
  std::shared_ptr<const SCuboid> cuboid;  // nullptr unless status.ok()
  /// This query's own counters (not the engine totals).
  ScanStats stats;
  /// Degraded-mode partial answers (distributed scatter, DESIGN.md §10):
  /// the shards whose slices are absent from `cuboid`. Empty = complete.
  std::vector<size_t> missing_shards;
  double wait_ms = 0;  // admission to start of execution
  double exec_ms = 0;  // execution only
};

/// \brief Concurrent query endpoint over one engine.
///
/// Routes through a ShardedEngine, so a service fronts one monolithic
/// executor or N shard-local executors transparently (the SOlapEngine
/// constructor wraps the engine in the facade's one-shard shape).
///
/// Thread-safe; Submit may be called from any thread. Destruction (or
/// Shutdown) stops admitting, cancels queued-but-unstarted queries and
/// joins the workers — every future obtained from Submit is fulfilled.
class QueryService {
 public:
  /// `engine` must outlive the service. Its writers (IngestRows,
  /// EvictBefore, AppendRawSequences, NotifyTableAppend) serialize against
  /// queries through the engine's epoch gate, so they may run meanwhile.
  QueryService(SOlapEngine* engine, ServiceOptions options = {});
  /// Sharded front: scattered queries, per-shard counters and scatter/
  /// gather spans flow through the service unchanged.
  QueryService(ShardedEngine* engine, ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// A submitted query: the eventual response plus a cancel handle.
  struct Ticket {
    std::future<QueryResponse> response;
    /// Trips the query's stop token; the executor notices at its next
    /// cancellation poll and the response resolves with kCancelled.
    std::shared_ptr<StopSource> canceller;
  };

  /// Queues `spec` for execution. Sheds immediately (ResourceExhausted
  /// response, future already ready) when the service is saturated or
  /// shutting down.
  Ticket Submit(const CuboidSpec& spec, SubmitOptions opts = {});

  /// Blocking convenience: Submit + wait.
  QueryResponse Run(const CuboidSpec& spec, SubmitOptions opts = {});

  // -- Streaming ingestion ---------------------------------------------------

  /// Outcome of one ingest batch.
  struct IngestResult {
    Status status = Status::OK();
    size_t events = 0;   ///< rows appended (0 unless status.ok())
    uint64_t epoch = 0;  ///< engine epoch after the commit
  };

  /// Appends one batch of event rows through the engine's epoch-gated
  /// write path (docs/INGESTION.md). Runs on the CALLING thread — writers
  /// serialize on the engine gate instead of competing with queries for
  /// the pool — and is rejected with kUnavailable while draining or shut
  /// down. All-or-nothing per batch, like SOlapEngine::IngestRows.
  IngestResult Ingest(const std::vector<std::vector<Value>>& rows,
                      TraceContext* trace = nullptr);

  /// Time-window retention fan-in; see SOlapEngine::EvictBefore.
  Status EvictBefore(const std::string& order_attr, int64_t cutoff);

  /// Foreground delta merge across every shard (admin, tests).
  Status MergeDeltasNow();

  /// Engine epoch — what /metrics reports as the `epoch` gauge.
  uint64_t epoch() const { return engine_->epoch(); }

  // -- Sessions --------------------------------------------------------------

  /// Opens an iterative session starting from `initial`.
  SessionId OpenSession(CuboidSpec initial);
  /// Applies `op` to the session (atomically under the session lock) and
  /// queues the session's new current spec.
  Result<Ticket> SubmitSessionOp(SessionId id, const SessionOp& op,
                                 SubmitOptions opts = {});
  /// Re-queues the session's current spec (a repository hit when the
  /// session already ran it — the paper's repeated-query case).
  Result<Ticket> SubmitSessionCurrent(SessionId id, SubmitOptions opts = {});
  void CloseSession(SessionId id);
  SessionManager& sessions() { return sessions_; }

  // -- Introspection ---------------------------------------------------------

  MetricsRegistry& metrics() { return metrics_; }
  /// The most recently completed sampled trace (ServiceOptions::
  /// trace_sample_every), or nullptr when sampling is off / none finished.
  std::shared_ptr<const TraceContext> LastSampledTrace() const {
    std::lock_guard<std::mutex> lock(sampled_mu_);
    return sampled_trace_;
  }
  /// Refreshes the resource gauges — governor usage/budget/rejects and the
  /// process-wide snapshot-IO retry count — from their live sources.
  /// Gauges are pull-based: call this before rendering metrics.
  void RefreshResourceMetrics();
  /// Queries admitted but not finished (queued or executing).
  size_t PendingQueries() const {
    return pending_.load(std::memory_order_relaxed);
  }
  size_t num_threads() const { return pool_.num_threads(); }

  /// Drain hook for front-ends (net/server.h): stops admitting new queries
  /// — they shed immediately with kUnavailable (not kResourceExhausted, so
  /// clients can tell lame-duck from overload) — while queued and executing
  /// queries run to completion. Idempotent; does not stop the workers.
  void BeginDrain();
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  /// Blocks until no query is pending (queued or executing) or `timeout`
  /// elapses; returns true when idle was reached. Meaningful after
  /// BeginDrain, when the pending count can only fall.
  bool WaitIdle(std::chrono::milliseconds timeout);

  /// Stops admitting, fails queued-but-unstarted queries with kCancelled,
  /// waits for executing queries to finish. Idempotent.
  void Shutdown();

 private:
  /// SOlapEngine-constructor plumbing: owns the one-shard facade.
  QueryService(std::unique_ptr<ShardedEngine> owned, ServiceOptions options);

  /// Synchronizes duplicate in-flight specs (single-flight): the first
  /// submitter executes, duplicates wait on the gate and then read the
  /// repository.
  struct FlightGate {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };

  /// `sampled` is the service-owned trace of an every-Nth sampled query
  /// (null when the caller supplied its own sink or sampling is off);
  /// it is published via LastSampledTrace() when the query finishes.
  void Execute(const CuboidSpec& spec, SubmitOptions opts, StopToken stop,
               std::chrono::steady_clock::time_point submitted,
               std::shared_ptr<std::promise<QueryResponse>> promise,
               std::shared_ptr<TraceContext> sampled);
  /// Blocks while another thread executes the same spec. Returns true if
  /// this caller is the designated executor (must call FinishFlight).
  bool EnterFlight(const std::string& key);
  void FinishFlight(const std::string& key);

  // Owned one-shard facade built by the SOlapEngine constructor; engine_
  // then points at it. Declared before engine_'s users.
  std::unique_ptr<ShardedEngine> owned_engine_;
  ShardedEngine* engine_;
  ServiceOptions options_;
  MetricsRegistry metrics_;
  SessionManager sessions_;

  std::atomic<size_t> pending_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> draining_{false};

  // Trace sampling (ServiceOptions::trace_sample_every).
  std::atomic<uint64_t> submit_seq_{0};
  mutable std::mutex sampled_mu_;
  std::shared_ptr<const TraceContext> sampled_trace_;

  std::mutex flights_mu_;
  std::unordered_map<std::string, std::shared_ptr<FlightGate>> flights_;

  // Cached metric handles (hot path looks them up once).
  Counter* submitted_;
  Counter* ok_;
  Counter* errors_;
  Counter* shed_;
  Counter* timeouts_;
  Counter* cancelled_;
  // Per-query ScanStats counters, indexed like kStatsFields.
  std::array<Counter*, std::size(kStatsFields)> stat_counters_;
  Counter* ingest_events_;
  Counter* delta_merges_;
  Counter* stale_cuboid_invalidations_;
  Gauge* mem_used_;
  Gauge* mem_budget_;
  Gauge* mem_rejects_;
  Gauge* io_retries_;
  Gauge* epoch_gauge_;
  Gauge* delta_segments_;

  // Engine-total watermarks behind the monotone ingest counters: the
  // background merger and the ingest path both advance engine totals, and
  // RefreshResourceMetrics publishes the diff since the last refresh.
  std::mutex ingest_metrics_mu_;
  uint64_t last_delta_merges_ = 0;
  uint64_t last_stale_invalidations_ = 0;
  Histogram* queue_depth_;
  Histogram* wait_ms_;
  Histogram* exec_cb_;
  Histogram* exec_ii_;
  Histogram* exec_auto_;

  // Declared last: workers must stop before members they use are torn down.
  ThreadPool pool_;
};

}  // namespace solap

#endif  // SOLAP_SERVICE_QUERY_SERVICE_H_
