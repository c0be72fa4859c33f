// The distributed execution tier (DESIGN.md §10): shard-server processes
// (tools/shard_main.cc) behind RemoteShardClient must be INVISIBLE when
// healthy — a QuerySet-A session over two real shard processes returns
// cuboids bit-identical to the PR 8 in-process scatter — and must degrade
// exactly as configured when they are not: strict mode fails the query
// with kUnavailable, degraded mode either re-executes the dead slice on
// the local fallback (bit-identical again) or answers without it and
// flags the missing shards, and the supervisor restarts a SIGKILLed
// process and restores full answers. Drain and cancel must both resolve
// in-flight scattered RPCs without leaking pool tasks.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "solap/engine/engine.h"
#include "solap/engine/operations.h"
#include "solap/engine/shard_partition.h"
#include "solap/engine/sharded_engine.h"
#include "solap/gen/transit.h"
#include "solap/net/http_client.h"
#include "solap/net/query_routes.h"
#include "solap/net/server.h"
#include "solap/net/shard_routes.h"
#include "solap/service/query_service.h"
#include "solap/service/shard_supervisor.h"
#include "solap/storage/hierarchy_io.h"
#include "solap/storage/io.h"

namespace solap {
namespace {

using std::chrono::milliseconds;

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// BIT-identical cells: the distributed path must reproduce the in-process
/// scatter exactly, including the FP SUM fold (ascending shard order on
/// both sides, bits-on-the-wire transport).
void ExpectBitIdentical(const SCuboid& a, const SCuboid& b,
                        const std::string& what) {
  ASSERT_EQ(a.num_cells(), b.num_cells()) << what;
  for (const auto& [key, cell] : a.cells()) {
    CellValue other = b.CellAt(key);
    EXPECT_EQ(cell.count, other.count) << what;
    EXPECT_EQ(Bits(cell.sum), Bits(other.sum)) << what;
    EXPECT_EQ(Bits(cell.min), Bits(other.min)) << what;
    EXPECT_EQ(Bits(cell.max), Bits(other.max)) << what;
  }
}

TransitData SmallTransit() {
  TransitParams p;
  p.num_passengers = 300;
  p.num_days = 2;
  p.seed = 11;
  return GenerateTransit(p);
}

/// FP SUM pair query over stations — the spec whose merged sum would
/// expose any non-bit-exact transport.
CuboidSpec TransitSpec() {
  CuboidSpec spec;
  spec.agg = AggKind::kSum;
  spec.measure = "amount";
  spec.seq.cluster_by = {{"card-id", "individual"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};
  return spec;
}

EngineOptions CoordinatorOpts() {
  EngineOptions o;
  o.shards = 2;
  o.shard_by = "card-id";
  o.exec_threads = 2;
  return o;
}

bool WaitFor(const std::function<bool()>& pred, milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(milliseconds(10));
  }
  return true;
}

/// A port that was just bound and released — nothing listens there, so
/// connects fail fast with ECONNREFUSED (the dead-shard stand-in).
uint16_t DeadPort() {
  net::HttpServerOptions opts;
  net::HttpServer probe(net::Router{}, opts);
  if (!probe.Start().ok()) return 1;
  const uint16_t port = probe.port();
  probe.Stop();
  return port;
}

RemoteShardOptions FastRpc() {
  RemoteShardOptions rpc;
  rpc.retry.max_attempts = 2;
  rpc.retry.initial_backoff = milliseconds(1);
  rpc.retry.max_backoff = milliseconds(5);
  rpc.default_timeout = milliseconds(5000);
  return rpc;
}

// -- In-test shard servers (no child processes) ------------------------------
//
// Two real HttpServers over the two slices of a partitioned table: the
// full remote data path (encode spec -> HTTP -> decode -> execute ->
// encode partial -> HTTP -> decode) without fork/exec, so failure shapes
// can be staged deterministically.
struct LocalCluster {
  TransitData data;
  std::vector<std::unique_ptr<EventTable>> slices;
  std::vector<std::unique_ptr<SOlapEngine>> engines;
  std::vector<std::unique_ptr<net::HttpServer>> servers;
  std::vector<ShardEndpoint> endpoints;

  explicit LocalCluster(size_t n, net::Router (*wrap)(net::Router) = nullptr) {
    data = SmallTransit();
    const EventTable* table = data.table.get();
    const int col = ResolveShardColumn(*table, "card-id");
    EXPECT_GE(col, 0);
    slices = table->PartitionRows(n, [table, col, n](RowId r) {
      return ShardOfCode(table->CodeAt(r, col), n);
    });
    // The per-shard options a coordinator and shard_main give each slice.
    EngineOptions opts;
    opts.repository_capacity_bytes = opts.repository_capacity_bytes / n;
    for (size_t i = 0; i < n; ++i) {
      engines.push_back(std::make_unique<SOlapEngine>(
          slices[i].get(), data.hierarchies.get(), opts));
      net::Router router = net::BuildShardRouter(engines.back().get());
      if (wrap != nullptr) router = wrap(std::move(router));
      auto server = std::make_unique<net::HttpServer>(
          std::move(router), net::HttpServerOptions{});
      EXPECT_TRUE(server->Start().ok());
      endpoints.push_back(ShardEndpoint{"127.0.0.1", server->port()});
      servers.push_back(std::move(server));
    }
  }

  ~LocalCluster() {
    for (auto& s : servers) s->Stop();
  }
};

TEST(DistributedShard, LoopbackServersBitIdenticalToInProcess) {
  LocalCluster cluster(2);
  ShardedEngine in_process(cluster.data.table.get(),
                           cluster.data.hierarchies.get(), CoordinatorOpts());
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  ASSERT_TRUE(
      distributed.EnableRemoteScatter(cluster.endpoints, FastRpc()).ok());

  const CuboidSpec spec = TransitSpec();
  for (ExecStrategy s :
       {ExecStrategy::kCounterBased, ExecStrategy::kInvertedIndex}) {
    ScanStats in_stats, dist_stats;
    ExecControl in_ctl, dist_ctl;
    in_ctl.stats_out = &in_stats;
    dist_ctl.stats_out = &dist_stats;
    auto a = in_process.Execute(spec, s, in_ctl);
    auto b = distributed.Execute(spec, s, dist_ctl);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectBitIdentical(**a, **b, "loopback vs in-process");
    // The shard-side ScanStats travel on the wire and must sum to the
    // same totals the in-process scatter accumulates.
    EXPECT_EQ(in_stats.sequences_scanned, dist_stats.sequences_scanned);
    EXPECT_EQ(in_stats.shard_partials, dist_stats.shard_partials);
    EXPECT_TRUE(dist_stats.shard_rpc_retries == 0u)
        << "healthy cluster must not retry";
  }
}

TEST(DistributedShard, StrictModeFailsWithUnavailableWhenShardDead) {
  LocalCluster cluster(2);
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  std::vector<ShardEndpoint> endpoints = cluster.endpoints;
  endpoints[1].port = DeadPort();  // shard 1 is down from the start
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(endpoints, FastRpc(),
                                       DegradePolicy::kStrict)
                  .ok());
  ScanStats stats;
  ExecControl ctl;
  ctl.stats_out = &stats;
  auto r = distributed.Execute(TransitSpec(), ExecStrategy::kCounterBased,
                               ctl);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
      << r.status().ToString();
  // The retry budget was spent before giving up (max_attempts=2 -> 1
  // retry against the dead port).
  EXPECT_EQ(stats.shard_rpc_retries, 1u);
  EXPECT_EQ(stats.partial_answers, 0u);
}

TEST(DistributedShard, DegradedLocalFallbackIsBitIdentical) {
  LocalCluster cluster(2);
  ShardedEngine in_process(cluster.data.table.get(),
                           cluster.data.hierarchies.get(), CoordinatorOpts());
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  std::vector<ShardEndpoint> endpoints = cluster.endpoints;
  endpoints[1].port = DeadPort();
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(endpoints, FastRpc(),
                                       DegradePolicy::kDegraded,
                                       /*local_fallback=*/true)
                  .ok());
  ScanStats stats;
  std::vector<size_t> missing;
  ExecControl ctl;
  ctl.stats_out = &stats;
  ctl.missing_shards = &missing;
  auto want =
      in_process.Execute(TransitSpec(), ExecStrategy::kCounterBased);
  auto got =
      distributed.Execute(TransitSpec(), ExecStrategy::kCounterBased, ctl);
  ASSERT_TRUE(want.ok() && got.ok()) << got.status().ToString();
  // The local fallback re-executes the SAME slice with the same code:
  // nothing is missing and the answer is complete and exact.
  ExpectBitIdentical(**want, **got, "degraded local fallback");
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(stats.degraded_queries, 1u);
  EXPECT_EQ(stats.partial_answers, 0u);
}

TEST(DistributedShard, DegradedPartialAnswerFlagsMissingShards) {
  LocalCluster cluster(2);
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  std::vector<ShardEndpoint> endpoints = cluster.endpoints;
  endpoints[1].port = DeadPort();
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(endpoints, FastRpc(),
                                       DegradePolicy::kDegraded,
                                       /*local_fallback=*/false)
                  .ok());
  for (int round = 0; round < 2; ++round) {
    ScanStats stats;
    std::vector<size_t> missing;
    ExecControl ctl;
    ctl.stats_out = &stats;
    ctl.missing_shards = &missing;
    auto r = distributed.Execute(TransitSpec(), ExecStrategy::kCounterBased,
                                 ctl);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_EQ(missing[0], 1u);
    // The repeat is partial again: the live shard may answer from its
    // own repository, but the dead shard's slice is simply absent.
    EXPECT_EQ(stats.partial_answers, 1u);
    EXPECT_GT((*r)->num_cells(), 0u);
  }
}

TEST(DistributedShard, AllShardsDeadIsUnavailableEvenDegraded) {
  LocalCluster cluster(2);
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  std::vector<ShardEndpoint> endpoints = cluster.endpoints;
  endpoints[0].port = DeadPort();
  endpoints[1].port = DeadPort();
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(endpoints, FastRpc(),
                                       DegradePolicy::kDegraded,
                                       /*local_fallback=*/false)
                  .ok());
  auto r = distributed.Execute(TransitSpec(), ExecStrategy::kCounterBased);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(DistributedShard, UnhealthyMarkSkipsRpcAndFailsFast) {
  LocalCluster cluster(2);
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(cluster.endpoints, FastRpc(),
                                       DegradePolicy::kDegraded,
                                       /*local_fallback=*/true)
                  .ok());
  distributed.SetShardHealthy(1, false);
  ScanStats stats;
  ExecControl ctl;
  ctl.stats_out = &stats;
  auto r =
      distributed.Execute(TransitSpec(), ExecStrategy::kCounterBased, ctl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // No RPC was attempted against the degraded shard — no retries burned —
  // and the local fallback answered for it.
  EXPECT_EQ(stats.shard_rpc_retries, 0u);
  EXPECT_EQ(stats.degraded_queries, 1u);
}

// -- Replicated appends (POST /shard/append) ---------------------------------

/// One card's tap-in/tap-out pair, a new sequence for the appended batch.
void AddTrip(std::vector<std::vector<Value>>* rows, const std::string& card,
             int64_t t) {
  rows->push_back({Value::Timestamp(t), Value::String(card),
                   Value::String("Pentagon"), Value::String("in"),
                   Value::Double(0.0)});
  rows->push_back({Value::Timestamp(t + 600), Value::String(card),
                   Value::String("Wheaton"), Value::String("out"),
                   Value::Double(-3.25)});
}

// Each shard server gets every dictionary tail it has not acknowledged,
// even tails minted by batches that routed it no rows. The replicas
// partition their own copy of the data, so their dictionaries are their
// own: the first batch's new cards route to shard A only, and the second
// batch's new card (the next code) routes to shard B, whose replica must
// then receive the first batch's card-id codes too.
TEST(DistributedShard, AppendSendsTailsAReplicaMissed) {
  LocalCluster cluster(2);
  TransitData coord = SmallTransit();
  TransitData local = SmallTransit();
  ShardedEngine distributed(coord.table.get(), coord.hierarchies.get(),
                            CoordinatorOpts());
  ShardedEngine in_process(local.table.get(), local.hierarchies.get(),
                           CoordinatorOpts());
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(cluster.endpoints, FastRpc(),
                                       DegradePolicy::kStrict)
                  .ok());

  // A new value takes the next code, so the placement of each new card is
  // known before it is sent.
  const int card_col = ResolveShardColumn(*coord.table, "card-id");
  ASSERT_GE(card_col, 0);
  size_t next_code = coord.table->dictionary(card_col)->size();
  const size_t shard_a = ShardOfCode(static_cast<Code>(next_code), 2);
  const int64_t t0 = MakeTimestamp(2007, 10, 3);
  std::vector<std::vector<Value>> to_a, to_b;
  while (ShardOfCode(static_cast<Code>(next_code), 2) == shard_a) {
    AddTrip(&to_a, "a-" + std::to_string(next_code), t0 + 60 * next_code);
    ++next_code;
  }
  AddTrip(&to_b, "b-" + std::to_string(next_code), t0 + 60 * next_code);
  const size_t shard_b = 1 - shard_a;

  const std::vector<size_t> slice_rows = {cluster.slices[0]->num_rows(),
                                          cluster.slices[1]->num_rows()};
  for (const auto* batch : {&to_a, &to_b}) {
    ASSERT_TRUE(distributed.IngestRows(*batch).ok());
    ASSERT_TRUE(in_process.IngestRows(*batch).ok());
  }
  EXPECT_TRUE(distributed.ShardHealthy(shard_a));
  EXPECT_TRUE(distributed.ShardHealthy(shard_b));
  EXPECT_EQ(cluster.slices[shard_a]->num_rows(),
            slice_rows[shard_a] + to_a.size());
  EXPECT_EQ(cluster.slices[shard_b]->num_rows(),
            slice_rows[shard_b] + to_b.size());

  ScanStats stats;
  ExecControl ctl;
  ctl.stats_out = &stats;
  auto want = in_process.Execute(TransitSpec(), ExecStrategy::kCounterBased);
  auto got =
      distributed.Execute(TransitSpec(), ExecStrategy::kCounterBased, ctl);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(**want, **got, "after replicated appends");
  EXPECT_EQ(stats.degraded_queries, 0u);
}

// -- Drain / cancel vs in-flight scatter -------------------------------------

/// Gate shared by the wrapped shard router: the handler blocks every
/// /shard/exec until Release (healthz passes through).
struct ExecGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> blocked{0};

  void Await() {
    blocked.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

ExecGate* g_gate = nullptr;

net::Router GatedWrap(net::Router inner) {
  auto shared = std::make_shared<net::Router>(std::move(inner));
  net::Router outer;
  outer.Handle("POST", "/shard/exec", [shared](const net::HttpRequest& req) {
    g_gate->Await();
    return shared->Dispatch(req);
  });
  outer.Handle("GET", "/healthz", [](const net::HttpRequest&) {
    return net::TextResponse(200, "ok\n");
  });
  return outer;
}

TEST(DistributedShard, DrainMidScatterLetsInFlightRpcsFinish) {
  ExecGate gate;
  g_gate = &gate;
  LocalCluster cluster(2, GatedWrap);
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  ASSERT_TRUE(
      distributed.EnableRemoteScatter(cluster.endpoints, FastRpc()).ok());
  ServiceOptions sopts;
  sopts.num_threads = 2;
  QueryService service(&distributed, sopts);

  // Submit; both shard RPCs park at the gate.
  QueryService::Ticket in_flight = service.Submit(TransitSpec());
  ASSERT_TRUE(WaitFor([&] { return gate.blocked.load() >= 2; },
                      milliseconds(5000)))
      << "scatter RPCs never reached the shard servers";

  // Drain mid-scatter: new work sheds with the lame-duck code...
  service.BeginDrain();
  QueryResponse shed = service.Run(TransitSpec());
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);

  // ...while the in-flight scattered query runs to completion once its
  // RPCs are released, and the service reaches idle (no leaked tasks).
  gate.Release();
  QueryResponse done = in_flight.response.get();
  EXPECT_TRUE(done.status.ok()) << done.status.ToString();
  EXPECT_NE(done.cuboid, nullptr);
  EXPECT_TRUE(service.WaitIdle(milliseconds(5000)));
  g_gate = nullptr;
}

TEST(DistributedShard, CancelMidScatterAbortsInFlightRpcs) {
  ExecGate gate;
  g_gate = &gate;
  LocalCluster cluster(2, GatedWrap);
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  ASSERT_TRUE(
      distributed.EnableRemoteScatter(cluster.endpoints, FastRpc()).ok());
  ServiceOptions sopts;
  sopts.num_threads = 2;
  QueryService service(&distributed, sopts);

  QueryService::Ticket ticket = service.Submit(TransitSpec());
  ASSERT_TRUE(WaitFor([&] { return gate.blocked.load() >= 2; },
                      milliseconds(5000)));
  // The gate stays CLOSED: the only way the query can resolve is the stop
  // token aborting the in-flight exchanges client-side.
  ticket.canceller->RequestStop();
  QueryResponse resp = ticket.response.get();
  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled)
      << resp.status.ToString();
  EXPECT_TRUE(service.WaitIdle(milliseconds(5000)));
  // Unblock the parked server handlers so teardown can join them.
  gate.Release();
  g_gate = nullptr;
}

// -- Real shard processes under the supervisor -------------------------------

#ifdef SOLAP_SHARD_MAIN_PATH

struct ProcessCluster {
  TransitData data;
  std::string dir;
  std::unique_ptr<ShardSupervisor> supervisor;

  explicit ProcessCluster(size_t n,
                          ShardSupervisorOptions sup_opts = {}) {
    data = SmallTransit();
    dir = ::testing::TempDir() + "solap_dist_" +
          std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir);
    const std::string table_path = dir + "/table.solap";
    const std::string hier_path = dir + "/hier.json";
    EXPECT_TRUE(SaveTable(*data.table, table_path).ok());
    EXPECT_TRUE(SaveHierarchies(*data.hierarchies, hier_path).ok());

    std::vector<ShardProcessSpec> specs;
    for (size_t i = 0; i < n; ++i) {
      ShardProcessSpec spec;
      spec.args = {SOLAP_SHARD_MAIN_PATH,
                   "--table",      table_path,
                   "--hier",       hier_path,
                   "--shard",      std::to_string(i),
                   "--num-shards", std::to_string(n),
                   "--shard-by",   "card-id"};
      spec.port_file = dir + "/shard" + std::to_string(i) + ".port";
      specs.push_back(std::move(spec));
    }
    supervisor = std::make_unique<ShardSupervisor>(std::move(specs),
                                                   sup_opts);
  }

  ~ProcessCluster() {
    if (supervisor) supervisor->Stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// QuerySet-A-style iterative session over the transit table: slice the
/// previous top cell, append a fresh station position, re-run.
std::vector<std::shared_ptr<const SCuboid>> RunTransitQa(
    ShardedEngine& engine, size_t num_queries) {
  std::vector<std::shared_ptr<const SCuboid>> out;
  CuboidSpec spec = TransitSpec();
  const LevelRef append_ref{"location", "station"};
  for (size_t q = 0; q < num_queries; ++q) {
    if (q > 0) {
      CellKey top = out.back()->ArgMaxCell();
      if (top.empty()) break;
      auto sliced = ops::SliceToCell(spec, *out.back(), top);
      if (!sliced.ok()) {
        ADD_FAILURE() << sliced.status().ToString();
        break;
      }
      auto appended = ops::Append(*sliced, "S" + std::to_string(q),
                                  append_ref);
      if (!appended.ok()) {
        ADD_FAILURE() << appended.status().ToString();
        break;
      }
      spec = *appended;
    }
    auto r = engine.Execute(spec, ExecStrategy::kAuto);
    if (!r.ok()) {
      ADD_FAILURE() << "QA" << (q + 1) << ": " << r.status().ToString();
      break;
    }
    out.push_back(*r);
  }
  return out;
}

TEST(DistributedShardProcess, QaSessionBitIdenticalToInProcess) {
  ProcessCluster cluster(2);
  ASSERT_TRUE(cluster.supervisor != nullptr);
  Status started = cluster.supervisor->Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  ShardedEngine in_process(cluster.data.table.get(),
                           cluster.data.hierarchies.get(), CoordinatorOpts());
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(cluster.supervisor->endpoints(),
                                       FastRpc())
                  .ok());

  auto want = RunTransitQa(in_process, 5);
  auto got = RunTransitQa(distributed, 5);
  ASSERT_GE(want.size(), 2u) << "session died too early to mean anything";
  ASSERT_EQ(want.size(), got.size());
  for (size_t q = 0; q < want.size(); ++q) {
    ExpectBitIdentical(*want[q], *got[q],
                       "QA" + std::to_string(q + 1) + " process cluster");
  }
  EXPECT_EQ(in_process.StatsSnapshot().sequences_scanned,
            distributed.StatsSnapshot().sequences_scanned);
}

TEST(DistributedShardProcess, SupervisorRestartsKilledShard) {
  ShardSupervisorOptions sup_opts;
  sup_opts.poll_interval = milliseconds(50);
  sup_opts.restart_backoff = milliseconds(100);
  ProcessCluster cluster(2, sup_opts);
  ASSERT_TRUE(cluster.supervisor != nullptr);
  ShardSupervisor& sup = *cluster.supervisor;
  ASSERT_TRUE(sup.Start().ok());

  ShardedEngine in_process(cluster.data.table.get(),
                           cluster.data.hierarchies.get(), CoordinatorOpts());
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(sup.endpoints(), FastRpc(),
                                       DegradePolicy::kDegraded,
                                       /*local_fallback=*/true)
                  .ok());
  sup.SetHealthCallback([&](size_t shard, bool healthy) {
    distributed.SetShardHealthy(shard, healthy);
  });

  auto want = in_process.Execute(TransitSpec(), ExecStrategy::kCounterBased);
  ASSERT_TRUE(want.ok());

  // Baseline: healthy cluster answers exactly.
  auto before = distributed.Execute(TransitSpec(),
                                    ExecStrategy::kCounterBased);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ExpectBitIdentical(**want, **before, "before kill");

  // SIGKILL shard 1 mid-life. The supervisor notices, flips health, and
  // the degraded engine still answers exactly via the local fallback.
  const pid_t victim = sup.pid(1);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  ASSERT_TRUE(WaitFor([&] { return !sup.healthy(1); }, milliseconds(10000)))
      << "supervisor never noticed the kill";
  auto during = distributed.Execute(TransitSpec(),
                                    ExecStrategy::kCounterBased);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  ExpectBitIdentical(**want, **during, "while shard 1 dead");

  // The supervisor restarts the process with its slice on the SAME port;
  // answers return to the full remote path, still bit-identical.
  ASSERT_TRUE(WaitFor([&] { return sup.healthy(1); }, milliseconds(15000)))
      << "shard 1 never came back";
  EXPECT_GE(sup.restarts(), 1u);
  ASSERT_TRUE(WaitFor([&] { return sup.pid(1) != victim; },
                      milliseconds(1000)));
  auto after = distributed.Execute(TransitSpec(),
                                   ExecStrategy::kCounterBased);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectBitIdentical(**want, **after, "after restart");

  // The health callback targets `distributed`, which dies before the
  // cluster's own Stop() in ~ProcessCluster — quiesce the monitor first.
  sup.Stop();
}

#endif  // SOLAP_SHARD_MAIN_PATH

// -- The partial-answer header end to end ------------------------------------

TEST(DistributedShard, PartialAnswerHeaderOnQueryRoute) {
  LocalCluster cluster(2);
  ShardedEngine distributed(cluster.data.table.get(),
                            cluster.data.hierarchies.get(), CoordinatorOpts());
  std::vector<ShardEndpoint> endpoints = cluster.endpoints;
  endpoints[1].port = DeadPort();
  ASSERT_TRUE(distributed
                  .EnableRemoteScatter(endpoints, FastRpc(),
                                       DegradePolicy::kDegraded,
                                       /*local_fallback=*/false)
                  .ok());
  QueryService service(&distributed);
  net::HttpServer front(net::BuildSolapRouter(&service),
                        net::HttpServerOptions{});
  ASSERT_TRUE(front.Start().ok());

  const std::string query =
      "SELECT SUM(amount) FROM S CLUSTER BY card-id AT individual "
      "SEQUENCE BY time CUBOID BY SUBSTRING (X, Y) "
      "WITH X AS location AT station, Y AS location AT station "
      "ALL-MATCHED";
  auto resp = net::HttpExchange(
      "127.0.0.1", front.port(), "POST", "/query", query, {},
      std::chrono::steady_clock::now() + std::chrono::seconds(30));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  front.Stop();
  ASSERT_EQ(resp->status, 200) << resp->body;
  const std::string* partial = resp->FindHeader("x-solap-partial");
  ASSERT_NE(partial, nullptr)
      << "degraded partial answer must carry X-Solap-Partial";
  EXPECT_EQ(*partial, "1");
}

}  // namespace
}  // namespace solap
