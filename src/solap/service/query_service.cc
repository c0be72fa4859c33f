#include "solap/service/query_service.h"

#include <thread>
#include <utility>

#include "solap/common/failpoint.h"
#include "solap/storage/io.h"

namespace solap {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One handle per kStatsFields row, null where the row names no metric.
std::array<Counter*, std::size(kStatsFields)> PerQueryCounters(
    MetricsRegistry& metrics) {
  std::array<Counter*, std::size(kStatsFields)> out{};
  for (size_t i = 0; i < out.size(); ++i) {
    if (*kStatsFields[i].metric != '\0') {
      out[i] = metrics.counter(kStatsFields[i].metric);
    }
  }
  return out;
}

}  // namespace

QueryService::QueryService(SOlapEngine* engine, ServiceOptions options)
    : QueryService(std::make_unique<ShardedEngine>(engine), options) {}

QueryService::QueryService(std::unique_ptr<ShardedEngine> owned,
                           ServiceOptions options)
    : QueryService(owned.get(), options) {
  owned_engine_ = std::move(owned);
}

QueryService::QueryService(ShardedEngine* engine, ServiceOptions options)
    : engine_(engine),
      options_(options),
      sessions_(engine->hierarchies(), options.sessions),
      submitted_(metrics_.counter("queries_submitted")),
      ok_(metrics_.counter("queries_ok")),
      errors_(metrics_.counter("queries_error")),
      shed_(metrics_.counter("queries_shed")),
      timeouts_(metrics_.counter("queries_timeout")),
      cancelled_(metrics_.counter("queries_cancelled")),
      stat_counters_(PerQueryCounters(metrics_)),
      ingest_events_(metrics_.counter("ingest_events")),
      delta_merges_(metrics_.counter("delta_merges")),
      stale_cuboid_invalidations_(
          metrics_.counter("stale_cuboid_invalidations")),
      mem_used_(metrics_.gauge("mem_used_bytes")),
      mem_budget_(metrics_.gauge("mem_budget_bytes")),
      mem_rejects_(metrics_.gauge("mem_budget_rejects")),
      io_retries_(metrics_.gauge("io_retries")),
      epoch_gauge_(metrics_.gauge("epoch")),
      delta_segments_(metrics_.gauge("delta_segments")),
      queue_depth_(metrics_.histogram("queue_depth")),
      wait_ms_(metrics_.histogram("queue_wait_ms")),
      exec_cb_(metrics_.histogram("exec_ms_cb")),
      exec_ii_(metrics_.histogram("exec_ms_ii")),
      exec_auto_(metrics_.histogram("exec_ms_auto")),
      pool_(options.num_threads) {}

QueryService::~QueryService() { Shutdown(); }

QueryService::Ticket QueryService::Submit(const CuboidSpec& spec,
                                          SubmitOptions opts) {
  const auto admit_start = std::chrono::steady_clock::now();
  submitted_->Inc();
  auto canceller = std::make_shared<StopSource>();
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  Ticket ticket{promise->get_future(), canceller};

  auto shed = [&](Status why) {
    shed_->Inc();
    QueryResponse resp;
    resp.status = std::move(why);
    promise->set_value(std::move(resp));
  };

  if (shutdown_.load(std::memory_order_acquire)) {
    shed(Status::ResourceExhausted("query service is shut down"));
    return ticket;
  }
  // Lame duck (BeginDrain): reject new work with a distinct code so the
  // network layer can answer 503 instead of the overload 429.
  if (draining_.load(std::memory_order_acquire)) {
    shed(Status::Unavailable("query service is draining"));
    return ticket;
  }
  // Chaos hook: an armed "service.submit" failpoint sheds the query at
  // admission, exercising the same path as a saturated queue.
  if (Status injected = SOLAP_FAILPOINT_CHECK("service.submit");
      !injected.ok()) {
    shed(std::move(injected));
    return ticket;
  }
  // Admission control: pending counts queued + executing queries. The
  // increment reserves a slot before the capacity check so that racing
  // submitters cannot all slip under the bound.
  size_t depth = pending_.fetch_add(1, std::memory_order_acq_rel);
  if (options_.max_queue_depth > 0 && depth >= options_.max_queue_depth) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    shed(Status::ResourceExhausted("query queue is full (" +
                                   std::to_string(depth) + " pending)"));
    return ticket;
  }
  // Recorded in plain units: the "ms" columns of the rendering read as
  // queries pending at admission time.
  queue_depth_->ObserveMs(static_cast<double>(depth));

  std::chrono::milliseconds timeout =
      opts.timeout.count() > 0 ? opts.timeout : options_.default_timeout;
  canceller->SetTimeout(timeout);

  // Trace sampling decision happens at admission so a sampled context's
  // epoch precedes the queue wait it measures. Explicit sinks win.
  std::shared_ptr<TraceContext> sampled;
  if (opts.trace == nullptr && options_.trace_sample_every > 0) {
    const uint64_t seq = submit_seq_.fetch_add(1, std::memory_order_relaxed);
    if (seq % options_.trace_sample_every == 0) {
      sampled = std::make_shared<TraceContext>();
    }
  }
  if (opts.trace != nullptr) {
    opts.trace->AddTimedSpan("service.admission", admit_start,
                             std::chrono::steady_clock::now(), -1);
  }

  const auto submitted_at = std::chrono::steady_clock::now();
  bool queued = pool_.Submit([this, spec, opts, stop = canceller->token(),
                              submitted_at, promise, sampled]() mutable {
    Execute(spec, opts, std::move(stop), submitted_at, std::move(promise),
            std::move(sampled));
  });
  if (!queued) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    shed(Status::ResourceExhausted("query service is shut down"));
  }
  return ticket;
}

QueryResponse QueryService::Run(const CuboidSpec& spec, SubmitOptions opts) {
  return Submit(spec, opts).response.get();
}

void QueryService::Execute(
    const CuboidSpec& spec, SubmitOptions opts, StopToken stop,
    std::chrono::steady_clock::time_point submitted,
    std::shared_ptr<std::promise<QueryResponse>> promise,
    std::shared_ptr<TraceContext> sampled) {
  QueryResponse resp;
  const auto started = std::chrono::steady_clock::now();
  resp.wait_ms = MsBetween(submitted, started);
  wait_ms_->ObserveMs(resp.wait_ms);
  TraceContext* trace = opts.trace != nullptr ? opts.trace : sampled.get();
  if (trace != nullptr) {
    trace->AddTimedSpan("service.queue_wait", submitted, started, -1);
  }

  auto finish = [&] {
    const Status& st = resp.status;
    if (st.ok()) {
      ok_->Inc();
    } else if (st.code() == StatusCode::kDeadlineExceeded) {
      timeouts_->Inc();
    } else if (st.code() == StatusCode::kCancelled) {
      cancelled_->Inc();
    } else {
      errors_->Inc();
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    promise->set_value(std::move(resp));
  };

  if (shutdown_.load(std::memory_order_acquire)) {
    resp.status = Status::Cancelled("query service shut down before start");
    finish();
    return;
  }
  // A query whose deadline passed while queued is failed without touching
  // the engine — under overload this sheds work instead of burning the
  // pool on answers nobody is waiting for.
  resp.status = stop.Check("query");
  if (!resp.status.ok()) {
    finish();
    return;
  }

  // Single flight: duplicates of an in-flight spec wait for the executor,
  // then run the engine themselves and land on the freshly cached cuboid —
  // the same miss-then-hits accounting a sequential client would see.
  const std::string key = spec.CanonicalString();
  const bool holder = EnterFlight(key);

  ExecControl control;
  control.stop = &stop;
  control.stats_out = &resp.stats;
  control.trace = trace;
  control.missing_shards = &resp.missing_shards;
  const auto exec_start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const SCuboid>> result = [&] {
    // Engine spans (optimize, exec.cb/ii, ...) open on this thread while
    // the frame is live, so they nest under service.execute.
    TraceSpan exec_span(trace, "service.execute");
    exec_span.Note("strategy", StrategyName(opts.strategy));
    return engine_->Execute(spec, opts.strategy, control);
  }();
  resp.exec_ms = MsBetween(exec_start, std::chrono::steady_clock::now());

  if (holder) FinishFlight(key);
  if (sampled != nullptr) {
    std::lock_guard<std::mutex> lock(sampled_mu_);
    sampled_trace_ = std::move(sampled);
  }

  switch (opts.strategy) {
    case ExecStrategy::kCounterBased:
      exec_cb_->ObserveMs(resp.exec_ms);
      break;
    case ExecStrategy::kInvertedIndex:
      exec_ii_->ObserveMs(resp.exec_ms);
      break;
    case ExecStrategy::kAuto:
      exec_auto_->ObserveMs(resp.exec_ms);
      break;
  }
  for (size_t i = 0; i < stat_counters_.size(); ++i) {
    if (stat_counters_[i] != nullptr) {
      stat_counters_[i]->Inc(resp.stats.*kStatsFields[i].member);
    }
  }

  if (result.ok()) {
    resp.cuboid = *std::move(result);
  } else {
    resp.status = result.status();
  }
  finish();
}

bool QueryService::EnterFlight(const std::string& key) {
  std::shared_ptr<FlightGate> gate;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    if (it == flights_.end()) {
      flights_.emplace(key, std::make_shared<FlightGate>());
      return true;
    }
    gate = it->second;
  }
  std::unique_lock<std::mutex> glock(gate->mu);
  gate->cv.wait(glock, [&] { return gate->done; });
  return false;
}

void QueryService::FinishFlight(const std::string& key) {
  std::shared_ptr<FlightGate> gate;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    gate = std::move(it->second);
    flights_.erase(it);
  }
  {
    std::lock_guard<std::mutex> glock(gate->mu);
    gate->done = true;
  }
  gate->cv.notify_all();
}

SessionId QueryService::OpenSession(CuboidSpec initial) {
  return sessions_.Open(std::move(initial));
}

Result<QueryService::Ticket> QueryService::SubmitSessionOp(
    SessionId id, const SessionOp& op, SubmitOptions opts) {
  TraceSpan span(opts.trace, "service.session_op");
  SOLAP_ASSIGN_OR_RETURN(CuboidSpec spec, sessions_.Apply(id, op));
  span.End();
  return Submit(spec, opts);
}

Result<QueryService::Ticket> QueryService::SubmitSessionCurrent(
    SessionId id, SubmitOptions opts) {
  TraceSpan span(opts.trace, "service.session_op");
  SOLAP_ASSIGN_OR_RETURN(CuboidSpec spec, sessions_.Current(id));
  span.End();
  return Submit(spec, opts);
}

void QueryService::CloseSession(SessionId id) { sessions_.Close(id); }

void QueryService::RefreshResourceMetrics() {
  mem_used_->Set(engine_->MemUsed());
  mem_budget_->Set(engine_->MemBudget());
  mem_rejects_->Set(engine_->MemRejects());
  io_retries_->Set(SnapshotIoRetries());
  epoch_gauge_->Set(engine_->epoch());
  delta_segments_->Set(engine_->DeltaSnapshot().segments);
  // The background merger and the ingest path advance engine totals off
  // any service thread; publish the monotone diff since the last refresh.
  const ScanStats totals = engine_->StatsSnapshot();
  std::lock_guard<std::mutex> lock(ingest_metrics_mu_);
  delta_merges_->Inc(totals.delta_merges - last_delta_merges_);
  last_delta_merges_ = totals.delta_merges;
  stale_cuboid_invalidations_->Inc(totals.stale_cuboid_invalidations -
                                   last_stale_invalidations_);
  last_stale_invalidations_ = totals.stale_cuboid_invalidations;
}

QueryService::IngestResult QueryService::Ingest(
    const std::vector<std::vector<Value>>& rows, TraceContext* trace) {
  IngestResult out;
  if (shutdown_.load(std::memory_order_acquire)) {
    out.status = Status::Unavailable("query service is shut down");
    return out;
  }
  if (draining_.load(std::memory_order_acquire)) {
    out.status = Status::Unavailable("query service is draining");
    return out;
  }
  out.status = engine_->IngestRows(rows, trace);
  if (out.status.ok()) {
    out.events = rows.size();
    out.epoch = engine_->epoch();
    ingest_events_->Inc(rows.size());
  }
  return out;
}

Status QueryService::EvictBefore(const std::string& order_attr,
                                 int64_t cutoff) {
  return engine_->EvictBefore(order_attr, cutoff);
}

Status QueryService::MergeDeltasNow() { return engine_->MergeDeltasNow(); }

void QueryService::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

bool QueryService::WaitIdle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // pending_ is a plain atomic with no condition variable; polling keeps
  // the hot Submit/Execute paths free of extra synchronization, and drain
  // is a once-per-process event where a few ms of latency is irrelevant.
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void QueryService::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  // Drains the queue: tasks still queued observe shutdown_ at start and
  // resolve their promises with kCancelled without executing.
  pool_.Shutdown();
}

}  // namespace solap
