// Perf-regression harness for the II query path (DESIGN.md "II execution").
//
// Every entry is a distribution over repeated runs — median, p10, p90 and
// n — and the output opens with one provenance line (git commit, build
// type, hardware threads, CPU model, whether the SSE4.2 STTNI kernel is
// live). Speedups are ratios of medians.
//
// Part 1 — container-pair microbenches: times IntersectSidLists, the one
// intersection-kernel family joins run, against the scalar two-cursor
// merge (IntersectSidListsScalar) on list pairs built so each row of the
// per-container dispatch table runs: array×array balanced (STTNI),
// array×array skewed (gallop), bitmap×bitmap, array×bitmap, run×array and
// run×bitmap. Each pair's ContainerOpCounts are checked, so an entry
// always times the kernel its name says.
//
// Part 2 — query timings: a QuerySet-A iterative session and a QuerySet-B
// roll-up, each CB vs II on fresh engines, reproducing the paper's
// §5.2/§5.3 comparisons.
//
// Part 3 — shard-count sweep: the QuerySet-A session on ShardedEngines
// with 1/2/4/8 shards plus a scatter/gather breakdown (report-only).
//
// Part 4 — distributed loopback (when built with SOLAP_SHARD_MAIN_PATH):
// the same sharded queries (each over its own WHERE time window, so no
// cache answers them) answered by 2 in-process shard executors vs 2
// shard_main child processes over loopback HTTP, pricing the wire path
// (spec encode -> HTTP -> partial decode) against the function call.
//
// Part 5 — ingest throughput: streams round-trip batches into a warmed
// engine (cached formation + inverted indices, so every append pays
// incremental maintenance: the new sids are appended to the cached lists
// in place), publishing events/sec as "ingest/append", gated by a
// min_events_per_sec floor in thresholds.json.
//
// Flags:
//   --quick           smaller data + fewer runs (the CI smoke mode)
//   --json=PATH       write all measurements as JSON (BENCH_ii.json)
//   --check=PATH      compare against a thresholds file (bench/
//                     thresholds.json); exit 1 when any floor or
//                     baseline in it is missed.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_util.h"
#include "solap/common/timer.h"
#include "solap/common/trace.h"
#include "solap/engine/sharded_engine.h"
#include "solap/gen/synthetic.h"
#include "solap/gen/transit.h"
#include "solap/hierarchy/concept_hierarchy.h"
#include "solap/index/container.h"
#include "solap/net/json.h"

#ifdef SOLAP_SHARD_MAIN_PATH
#include <unistd.h>

#include <filesystem>

#include "solap/service/shard_supervisor.h"
#include "solap/storage/hierarchy_io.h"
#include "solap/storage/io.h"
#endif

namespace solap {
namespace bench {
namespace {

/// Median, 10th and 90th percentile (linear interpolation) of a sample.
struct Dist {
  double median = 0, p10 = 0, p90 = 0;
  size_t n = 0;
};

Dist Summarize(std::vector<double> v) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  d.median = at(0.5);
  d.p10 = at(0.1);
  d.p90 = at(0.9);
  return d;
}

struct Entry {
  std::string name;
  Dist ms;
  // Optional context: >0 means "this many times faster than the named
  // reference", a ratio of medians (the reference is its own entry).
  double speedup = 0;
  // Optional throughput: >0 on ingest entries, from the median time;
  // gated by "min_events_per_sec/<name>" thresholds.
  double events_per_sec = 0;
};

// Runs `fn` once per sample; fn returns one time in ms.
template <typename Fn>
Dist Sample(size_t n, Fn&& fn) {
  std::vector<double> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(fn());
  return Summarize(std::move(v));
}

double Ratio(const Dist& reference, const Dist& x) {
  return x.median > 0 ? reference.median / x.median : 0;
}

// ---------------------------------------------------------------------------
// Part 1 — container-pair microbenches.

// `n` distinct random lows of one chunk (sorted), as full sids of `key`.
std::vector<Sid> RandomLows(size_t n, Sid key, std::mt19937& rng) {
  std::vector<uint16_t> lows(kContainerSpan);
  for (size_t i = 0; i < lows.size(); ++i) lows[i] = static_cast<uint16_t>(i);
  std::shuffle(lows.begin(), lows.end(), rng);
  lows.resize(n);
  std::sort(lows.begin(), lows.end());
  std::vector<Sid> out;
  out.reserve(n);
  for (uint16_t l : lows) out.push_back((key << 16) | l);
  return out;
}

// Eight contiguous runs of 2048 sids per chunk: a run container.
std::vector<Sid> Runs(Sid key) {
  std::vector<Sid> out;
  for (Sid r = 0; r < 8; ++r) {
    for (Sid i = 0; i < 2048; ++i) out.push_back((key << 16) + r * 8192 + i);
  }
  return out;
}

double TimePair(const SidList& a, const SidList& b, size_t reps,
                bool container) {
  std::vector<Sid> out;
  volatile size_t sink = 0;
  Timer t;
  for (size_t r = 0; r < reps; ++r) {
    if (container) {
      IntersectSidLists(a, b, out);
    } else {
      IntersectSidListsScalar(a, b, out);
    }
    sink = sink + out.size();
  }
  (void)sink;
  return t.ElapsedMs() / static_cast<double>(reps);
}

void RunMicrobenches(bool quick, std::vector<Entry>* entries) {
  // Quick mode shrinks the chunk count, not the per-chunk sizes, so every
  // pair keeps its container kinds and its kernel.
  const Sid chunks = quick ? 4 : 16;
  const size_t samples = quick ? 11 : 21;
  const size_t reps = 20;

  // Per-chunk contents of each side: that many random distinct lows (an
  // array container up to 4096, a bitmap past it), or kRuns for eight
  // contiguous 2048-sid runs (a run container).
  constexpr size_t kRuns = 0;
  struct Regime {
    const char* name;
    size_t a, b;
    uint64_t ContainerOpCounts::*op;  // the counter each chunk pair bumps
  };
  const Regime regimes[] = {
      {"array_balanced", 2000, 2000, &ContainerOpCounts::array_ops},
      {"array_skewed", 60, 3840, &ContainerOpCounts::gallop_ops},
      {"bitmap_bitmap", 20000, 20000, &ContainerOpCounts::bitmap_ops},
      {"array_bitmap", 256, 20000, &ContainerOpCounts::bitmap_ops},
      {"run_array", kRuns, 2000, &ContainerOpCounts::run_ops},
      {"run_bitmap", kRuns, 20000, &ContainerOpCounts::run_ops},
  };

  std::mt19937 rng(8);
  std::printf("-- container-pair kernels vs scalar merge (%u chunks, %zu "
              "samples x %zu reps, STTNI %s) --\n",
              chunks, samples, reps, CpuHasSse42() ? "on" : "off");
  std::printf("%-15s | %12s %14s | %8s\n", "pair", "scalar(ms)",
              "container(ms)", "speedup");
  auto make_list = [&](size_t lows) {
    std::vector<Sid> v;
    for (Sid k = 0; k < chunks; ++k) {
      const std::vector<Sid> c =
          lows == kRuns ? Runs(k) : RandomLows(lows, k, rng);
      v.insert(v.end(), c.begin(), c.end());
    }
    return SidList::FromSorted(v);
  };
  for (const Regime& rg : regimes) {
    const SidList a = make_list(rg.a);
    const SidList b = make_list(rg.b);
    // The pair must run the kernel its name says, once per chunk, and
    // agree with the scalar merge.
    ContainerOpCounts ops;
    std::vector<Sid> got, want;
    IntersectSidLists(a, b, got, &ops);
    IntersectSidListsScalar(a, b, want);
    const uint64_t all =
        ops.array_ops + ops.bitmap_ops + ops.run_ops + ops.gallop_ops;
    if (got != want || ops.*rg.op != chunks || all != chunks) {
      std::fprintf(stderr, "kernel pair %s does not run its kernel\n",
                   rg.name);
      std::exit(1);
    }
    const Dist scalar = Sample(samples, [&] {
      return TimePair(a, b, reps, /*container=*/false);
    });
    const Dist container = Sample(samples, [&] {
      return TimePair(a, b, reps, /*container=*/true);
    });
    const double speedup = Ratio(scalar, container);
    std::printf("%-15s | %12.4f %14.4f | %7.1fx\n", rg.name, scalar.median,
                container.median, speedup);
    const std::string base = std::string("kernel/") + rg.name;
    entries->push_back({base + "/scalar", scalar, 0});
    entries->push_back({base + "/container", container, speedup});
  }
}

// ---------------------------------------------------------------------------
// Part 2 — QuerySet-A iterative session (paper §5.2) and a QuerySet-B
// roll-up (§5.3), CB vs II, each run on fresh engines `runs` times.
void RunQuerysets(bool quick, size_t runs, std::vector<Entry>* entries) {
  SyntheticParams p;
  p.num_sequences = quick ? 6000 : 50000;
  p.num_symbols = 30;
  p.mean_length = 10;
  p.num_groups = 4;
  SyntheticData data = GenerateSynthetic(p);
  const LevelRef sym{SyntheticData::kAttr, "symbol"};
  const size_t L = quick ? 3 : 5;

  CuboidSpec qa1;
  qa1.symbols = {"X", "Y"};
  qa1.dims = {PatternDim{"X", sym, {}, ""}, PatternDim{"Y", sym, {}, ""}};

  // Per query label: CB and II samples, in session order.
  std::vector<std::string> labels;
  std::map<std::string, std::vector<double>> cb_ms, ii_ms;
  for (size_t r = 0; r < runs; ++r) {
    SOlapEngine cb_engine(data.groups, data.hierarchies.get());
    SOlapEngine ii_engine(data.groups, data.hierarchies.get());
    auto cb = RunQaSession(cb_engine, ExecStrategy::kCounterBased, qa1, L,
                           sym);
    auto ii = RunQaSession(ii_engine, ExecStrategy::kInvertedIndex, qa1, L,
                           sym);
    for (size_t i = 0; i < cb.size() && i < ii.size(); ++i) {
      if (r == 0) labels.push_back(cb[i].label);
      cb_ms[cb[i].label].push_back(cb[i].runtime_ms);
      ii_ms[cb[i].label].push_back(ii[i].runtime_ms);
    }
  }
  std::printf("\n-- queryset A (L=%zu, n=%zu, %zu runs, medians) --\n", L,
              p.num_sequences, runs);
  std::printf("%-6s | %12s %12s | %10s\n", "query", "CB(ms)", "II(ms)",
              "II-speedup");
  for (const std::string& label : labels) {
    const Dist cb = Summarize(cb_ms[label]);
    const Dist ii = Summarize(ii_ms[label]);
    const double speedup = Ratio(cb, ii);
    std::printf("%-6s | %12.2f %12.2f | %9.2fx\n", label.c_str(), cb.median,
                ii.median, speedup);
    const std::string base = "qa/" + label;
    entries->push_back({base + "/cb", cb, 0});
    entries->push_back({base + "/ii", ii, speedup});
  }

  // QuerySet B: fine-level query warms the cache, the coarse follow-up is
  // answered by P-ROLL-UP list merging (II) vs a fresh scan (CB).
  CuboidSpec fine = qa1;
  CuboidSpec coarse = qa1;
  coarse.dims[0].ref = {SyntheticData::kAttr, "group"};
  coarse.dims[1].ref = {SyntheticData::kAttr, "group"};
  std::vector<double> qb_cb_ms, qb_ii_ms;
  for (size_t r = 0; r < runs; ++r) {
    SOlapEngine cb2(data.groups, data.hierarchies.get());
    SOlapEngine ii2(data.groups, data.hierarchies.get());
    RunQuery(ii2, fine, ExecStrategy::kInvertedIndex, "QB-warm");
    qb_cb_ms.push_back(
        RunQuery(cb2, coarse, ExecStrategy::kCounterBased, "QB-rollup")
            .runtime_ms);
    qb_ii_ms.push_back(
        RunQuery(ii2, coarse, ExecStrategy::kInvertedIndex, "QB-rollup")
            .runtime_ms);
  }
  const Dist qb_cb = Summarize(qb_cb_ms), qb_ii = Summarize(qb_ii_ms);
  const double qb_speedup = Ratio(qb_cb, qb_ii);
  std::printf("\n-- queryset B roll-up (%zu runs, medians) --\n", runs);
  std::printf("CB %.2f ms, II (P-ROLL-UP) %.2f ms, speedup %.2fx\n",
              qb_cb.median, qb_ii.median, qb_speedup);
  entries->push_back({"qb/rollup/cb", qb_cb, 0});
  entries->push_back({"qb/rollup/ii", qb_ii, qb_speedup});
}

// Part 3 — shard-count sweep: the same balanced QuerySet-A session run on
// ShardedEngines with 1/2/4/8 shards (CB, scan-bound: the workload that
// scales with shard-local executors). Publishes per-count session times,
// the best sharded count's speedup over 1 shard ("qa/balanced/sharded")
// and a scatter/gather wall-time breakdown from traced queries. None of it
// is gated: on a few vCPUs the fan-out does not pay on this data size, and
// perfbench's `scan` workload gates 4-shard execution end to end.
void RunShardSweep(bool quick, size_t runs, std::vector<Entry>* entries) {
  SyntheticParams p;
  p.num_sequences = quick ? 6000 : 50000;
  p.num_symbols = 30;
  p.mean_length = 10;
  p.num_groups = 4;
  p.seed = 43;
  SyntheticData data = GenerateSynthetic(p);
  const LevelRef sym{SyntheticData::kAttr, "symbol"};
  const size_t L = quick ? 3 : 5;

  CuboidSpec qa1;
  qa1.symbols = {"X", "Y"};
  qa1.dims = {PatternDim{"X", sym, {}, ""}, PatternDim{"Y", sym, {}, ""}};

  const size_t shard_counts[] = {1, 2, 4, 8};
  std::map<size_t, std::vector<double>> samples;
  for (size_t r = 0; r < runs; ++r) {
    for (size_t n : shard_counts) {
      EngineOptions opts;
      opts.shards = n;
      opts.exec_threads = n;  // one scatter worker per shard
      ShardedEngine engine(data.groups, data.hierarchies.get(), opts);
      double total_ms = 0;
      for (const Measurement& m :
           RunQaSession(engine, ExecStrategy::kCounterBased, qa1, L, sym)) {
        total_ms += m.runtime_ms;
      }
      samples[n].push_back(total_ms);
    }
  }
  std::printf("\n-- shard-count sweep (CB session, L=%zu, n=%zu, %zu runs, "
              "medians) --\n",
              L, p.num_sequences, runs);
  std::printf("%-8s | %12s %10s\n", "shards", "time(ms)", "vs 1-shard");
  const Dist t1 = Summarize(samples[1]);
  Dist best;
  double best_speedup = 0;
  size_t best_shards = 1;
  for (size_t n : shard_counts) {
    const Dist d = Summarize(samples[n]);
    const double speedup = Ratio(t1, d);
    std::printf("%-8zu | %12.2f %9.2fx\n", n, d.median, speedup);
    entries->push_back({"qa/balanced/shards" + std::to_string(n), d,
                        n == 1 ? 0 : speedup});
    if (n > 1 && (best.n == 0 || d.median < best.median)) {
      best = d;
      best_speedup = speedup;
      best_shards = n;
    }
  }
  entries->push_back({"qa/balanced/sharded", best, best_speedup});

  // Scatter/gather breakdown: traced queries on fresh engines with the
  // winning shard count (fresh so the shard repositories cannot absorb
  // them).
  std::vector<double> scatter_ms, gather_ms;
  for (size_t r = 0; r < runs; ++r) {
    EngineOptions opts;
    opts.shards = best_shards;
    opts.exec_threads = best_shards;
    ShardedEngine traced(data.groups, data.hierarchies.get(), opts);
    TraceContext trace;
    ExecControl control;
    control.trace = &trace;
    auto res = traced.Execute(qa1, ExecStrategy::kCounterBased, control);
    if (!res.ok()) {
      std::fprintf(stderr, "traced sweep query failed: %s\n",
                   res.status().ToString().c_str());
      std::exit(1);
    }
    double scatter = 0, gather = 0;
    for (const auto& span : trace.Snapshot()) {
      if (span.name == "shard.scatter") scatter += span.dur_ns / 1e6;
      if (span.name == "shard.gather") gather += span.dur_ns / 1e6;
    }
    scatter_ms.push_back(scatter);
    gather_ms.push_back(gather);
  }
  const Dist scatter = Summarize(scatter_ms), gather = Summarize(gather_ms);
  std::printf("best: %zu shards %.2fx (scatter %.3f ms, gather %.3f ms)\n",
              best_shards, best_speedup, scatter.median, gather.median);
  entries->push_back({"qa/balanced/sharded/scatter", scatter, 0});
  entries->push_back({"qa/balanced/sharded/gather", gather, 0});
}


// Part 4 — distributed loopback: a transit FP-SUM pair query executed
// repeatedly, each time over its own WHERE time window so neither side can
// answer from a cached formation or cuboid, on (a) a 2-shard in-process
// engine and (b) the same coordinator scattering to 2 shard_main child
// processes over loopback HTTP. Each query is one sample. Publishes both
// per-query distributions, the in-process/loopback ratio of medians (as the
// "speedup" of dist/loopback — expected < 1: the wire costs something),
// and the per-query RPC overhead, the difference of the medians. No
// threshold gates these: loopback latency is too environment-sensitive
// for a floor.
#ifdef SOLAP_SHARD_MAIN_PATH
void RunDistributedLoopback(bool quick, std::vector<Entry>* entries) {
  TransitParams p;
  p.num_passengers = quick ? 2000 : 8000;
  p.num_days = quick ? 3 : 7;
  p.seed = 7;
  TransitData data = GenerateTransit(p);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("solap_bench_dist_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  const std::string table_path = dir + "/table.solap";
  const std::string hier_path = dir + "/hier.json";
  if (!SaveTable(*data.table, table_path).ok() ||
      !SaveHierarchies(*data.hierarchies, hier_path).ok()) {
    std::fprintf(stderr, "distributed loopback: snapshot save failed\n");
    return;
  }

  constexpr size_t kShards = 2;
  std::vector<ShardProcessSpec> specs;
  for (size_t i = 0; i < kShards; ++i) {
    ShardProcessSpec spec;
    spec.args = {SOLAP_SHARD_MAIN_PATH,
                 "--table",      table_path,
                 "--hier",       hier_path,
                 "--shard",      std::to_string(i),
                 "--num-shards", std::to_string(kShards),
                 "--shard-by",   "card-id"};
    spec.port_file = dir + "/shard" + std::to_string(i) + ".port";
    specs.push_back(std::move(spec));
  }
  ShardSupervisor supervisor(std::move(specs), {});
  Status started = supervisor.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "distributed loopback skipped: %s\n",
                 started.ToString().c_str());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return;
  }

  CuboidSpec spec;
  spec.agg = AggKind::kSum;
  spec.measure = "amount";
  spec.seq.cluster_by = {{"card-id", "individual"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  EngineOptions opts;
  opts.shards = kShards;
  opts.shard_by = "card-id";
  opts.exec_threads = kShards;
  ShardedEngine in_process(data.table.get(), data.hierarchies.get(), opts);
  ShardedEngine distributed(data.table.get(), data.hierarchies.get(), opts);
  Status remote = distributed.EnableRemoteScatter(supervisor.endpoints());
  if (!remote.ok()) {
    std::fprintf(stderr, "distributed loopback skipped: %s\n",
                 remote.ToString().c_str());
    supervisor.Stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return;
  }

  const size_t reps = quick ? 10 : 20;
  // Query r keeps the rows before the data's end minus r minutes: every
  // window selects the same rows (no trip runs that late), but each one is
  // a distinct spec. Both sides run the same windows in the same order.
  const int64_t first_ts = MakeTimestamp(p.start_year, p.start_month,
                                         p.start_day);
  const int64_t end_ts = first_ts + static_cast<int64_t>(p.num_days) * 86400;
  auto windowed = [&](size_t r) {
    CuboidSpec s = spec;
    s.seq.where = Expr::And(
        Expr::Ge(Expr::Col("time"), Expr::Lit(Value::Timestamp(first_ts))),
        Expr::Lt(Expr::Col("time"),
                 Expr::Lit(Value::Timestamp(
                     end_ts - static_cast<int64_t>(r) * 60))));
    return s;
  };
  auto time_session = [&](ShardedEngine& engine, Dist* out) -> bool {
    // One warm-up outside the clock (dictionary/page faults, connection
    // establishment on the remote side).
    std::vector<double> v;
    for (size_t r = 0; r <= reps; ++r) {
      const CuboidSpec query = windowed(r);
      Timer t;
      auto res = engine.Execute(query, ExecStrategy::kCounterBased);
      if (!res.ok()) {
        std::fprintf(stderr, "distributed loopback query failed: %s\n",
                     res.status().ToString().c_str());
        return false;
      }
      if (r > 0) v.push_back(t.ElapsedMs());
    }
    *out = Summarize(std::move(v));
    return true;
  };

  Dist inproc, loopback;
  const bool ok =
      time_session(in_process, &inproc) && time_session(distributed, &loopback);
  supervisor.Stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!ok) return;

  const double ratio = Ratio(inproc, loopback);
  // A difference of two medians is not itself a sample distribution, so
  // its entry reports the same value for median, p10 and p90.
  Dist overhead;
  overhead.median = overhead.p10 = overhead.p90 =
      loopback.median - inproc.median;
  overhead.n = reps;
  std::printf("\n-- distributed loopback (2 shards, %zu queries, n=%zu, "
              "medians) --\n",
              reps, p.num_passengers);
  std::printf(
      "in-process %.3f ms, loopback %.3f ms (%.2fx), rpc overhead "
      "%.3f ms/query\n",
      inproc.median, loopback.median, ratio, overhead.median);
  entries->push_back({"dist/inproc", inproc, 0});
  entries->push_back({"dist/loopback", loopback, ratio});
  entries->push_back({"dist/loopback/rpc_overhead", overhead, 0});
}
#endif  // SOLAP_SHARD_MAIN_PATH

// Part 5 — ingest throughput. One arm, "ingest/append", each run on a
// fresh transit table (IngestRows mutates it): warm a pair query so the
// engine holds a cached formation + complete inverted indices, then stream
// round-trip batches of brand-new card-ids — the extension path every
// append-mostly workload lives on — and report events/sec. Every batch
// extends the formation, appends the new sids to the cached lists in
// place and patches the cached cuboid. A closing query keeps the run
// honest (the ingested events must be visible). The arm runs `runs`
// times; events/sec comes from the median time.
void RunIngestThroughput(bool quick, size_t runs,
                         std::vector<Entry>* entries) {
  TransitParams p;
  p.num_passengers = quick ? 800 : 4000;
  p.num_days = 2;
  p.seed = 11;

  CuboidSpec spec;
  spec.seq.cluster_by = {{"card-id", "individual"}};
  spec.seq.sequence_by = "time";
  spec.symbols = {"X", "Y"};
  spec.dims = {PatternDim{"X", {"location", "station"}, {}, ""},
               PatternDim{"Y", {"location", "station"}, {}, ""}};

  const size_t batches = quick ? 250 : 2500;
  constexpr size_t kRowsPerBatch = 4;  // one round trip per new card
  const int64_t t0 = MakeTimestamp(2007, 10, 20, 6, 0, 0);  // past the window

  std::printf("\n-- ingest throughput (%zu batches x %zu events) --\n",
              batches, kRowsPerBatch);
  auto run_once = [&]() -> double {
    TransitData data = GenerateTransit(p);
    SOlapEngine engine(data.table.get(), data.hierarchies.get());
    auto warm = engine.Execute(spec, ExecStrategy::kInvertedIndex);
    if (!warm.ok()) {
      std::fprintf(stderr, "ingest warm-up query failed: %s\n",
                   warm.status().ToString().c_str());
      std::exit(1);
    }
    const size_t cells_before = (*warm)->num_cells();
    Timer t;
    for (size_t b = 0; b < batches; ++b) {
      const std::string card = "live-" + std::to_string(b);
      const int64_t base = t0 + static_cast<int64_t>(b) * 180;
      Status s = engine.IngestRows({
          {Value::Timestamp(base), Value::String(card),
           Value::String("Pentagon"), Value::String("in"), Value::Double(0)},
          {Value::Timestamp(base + 30 * 60), Value::String(card),
           Value::String("Clarendon"), Value::String("out"),
           Value::Double(-2.0)},
          {Value::Timestamp(base + 9 * 3600), Value::String(card),
           Value::String("Clarendon"), Value::String("in"), Value::Double(0)},
          {Value::Timestamp(base + 9 * 3600 + 30 * 60), Value::String(card),
           Value::String("Pentagon"), Value::String("out"),
           Value::Double(-2.0)},
      });
      if (!s.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    const double ms = t.ElapsedMs();
    auto after = engine.Execute(spec, ExecStrategy::kInvertedIndex);
    if (!after.ok() || (*after)->num_cells() < cells_before) {
      std::fprintf(stderr, "post-ingest query lost cells\n");
      std::exit(1);
    }
    return ms;
  };
  const Dist d = Sample(runs, run_once);
  const double eps =
      d.median > 0
          ? static_cast<double>(batches * kRowsPerBatch) / (d.median / 1e3)
          : 0;
  std::printf("append    | %10.2f ms %12.0f events/s (median of %zu)\n",
              d.median, eps, d.n);
  entries->push_back({"ingest/append", d, 0, eps});
}

// The git commit the sources were measured at, "-dirty" when tracked files
// differ from it (perfbench's source id); "unknown" without git metadata.
std::string SourceId() {
  auto run = [](const std::string& cmd) {
    std::string out;
    if (FILE* f = ::popen(cmd.c_str(), "r")) {
      char buf[256];
      while (std::fgets(buf, sizeof(buf), f) != nullptr) out += buf;
      if (::pclose(f) != 0) return std::string();
    }
    return out;
  };
  const std::string git = "git -C '" SOLAP_SOURCE_DIR "' ";
  std::string head = run(git + "rev-parse HEAD 2>/dev/null");
  while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) {
    head.pop_back();
  }
  if (head.empty()) return "unknown";
  const bool dirty =
      !run(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty();
  return "git:" + head + (dirty ? "-dirty" : "");
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

// One line, the same fields perfbench's provenance line carries.
std::string Provenance(bool quick) {
  std::ostringstream o;
  o << "{\"source\": " << net::JsonString(SourceId())
    << ", \"build_type\": " << net::JsonString(SOLAP_BUILD_TYPE)
    << ", \"hw_threads\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << net::JsonString(CpuModel())
    << ", \"sttni\": " << (CpuHasSse42() ? "true" : "false")
    << ", \"mode\": \"" << (quick ? "quick" : "full") << "\"}";
  return o.str();
}

void WriteJson(const std::string& path, const std::string& provenance,
               const std::vector<Entry>& entries, bool quick) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"bench_ii_kernels\",\n  \"mode\": \""
      << (quick ? "quick" : "full") << "\",\n  \"provenance\": "
      << provenance << ",\n  \"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    {\"name\": \"" << e.name << "\", \"median_ms\": "
        << e.ms.median << ", \"p10_ms\": " << e.ms.p10
        << ", \"p90_ms\": " << e.ms.p90 << ", \"n\": " << e.ms.n;
    if (e.speedup > 0) out << ", \"speedup\": " << e.speedup;
    if (e.events_per_sec > 0) {
      out << ", \"events_per_sec\": " << e.events_per_sec;
    }
    out << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %zu entries to %s\n", entries.size(), path.c_str());
}

// Ad-hoc reader for bench/thresholds.json: every `"name": number` pair is
// a threshold. Good enough for a file we also write.
bool LoadThresholds(const std::string& path,
                    std::vector<std::pair<std::string, double>>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    size_t colon = line.find(':', q2);
    if (colon == std::string::npos) continue;
    double v = std::strtod(line.c_str() + colon + 1, nullptr);
    if (v > 0) out->emplace_back(line.substr(q1 + 1, q2 - q1 - 1), v);
  }
  return !out->empty();
}

// Regression gate for CI. Thresholds file entries are either
//   "<entry-name>": <baseline ms>        — fail when the median is >2x the
//                                          baseline (quick mode only: the
//                                          baselines are quick-mode times);
//   "min_speedup/<entry-name>": <x>      — fail when the entry's speedup
//                                          (a ratio of medians) is below x;
//   "min_events_per_sec/<entry-name>": n — fail when the entry's
//                                          throughput is below n.
// Built-in rule on top: at least one queryset II query keeps a >=2x CB
// speedup.
int Check(const std::string& path, const std::vector<Entry>& entries,
          bool quick) {
  std::vector<std::pair<std::string, double>> thresholds;
  if (!LoadThresholds(path, &thresholds)) {
    std::fprintf(stderr, "cannot read thresholds from %s\n", path.c_str());
    return 1;
  }
  auto find = [&](const std::string& name) -> const Entry* {
    for (const Entry& e : entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  int failures = 0;
  auto missing = [&](const std::string& name) {
    std::fprintf(stderr, "REGRESSION %s: entry missing\n", name.c_str());
    ++failures;
  };
  for (const auto& [name, value] : thresholds) {
    if (name.rfind("min_events_per_sec/", 0) == 0) {
      const Entry* e = find(name.substr(std::strlen("min_events_per_sec/")));
      if (e == nullptr) {
        missing(name);
      } else if (e->events_per_sec < value) {
        std::fprintf(stderr,
                     "REGRESSION %s: %.0f events/s < required %.0f\n",
                     e->name.c_str(), e->events_per_sec, value);
        ++failures;
      }
      continue;
    }
    if (name.rfind("min_speedup/", 0) == 0) {
      const Entry* e = find(name.substr(std::strlen("min_speedup/")));
      if (e == nullptr) {
        missing(name);
      } else if (e->speedup < value) {
        std::fprintf(stderr, "REGRESSION %s: speedup %.2fx < required %.2fx\n",
                     e->name.c_str(), e->speedup, value);
        ++failures;
      }
      continue;
    }
    if (!quick) continue;
    const Entry* e = find(name);
    if (e == nullptr) {
      missing(name);
    } else if (e->ms.median > 2.0 * value) {
      std::fprintf(stderr,
                   "REGRESSION %s: median %.4f ms vs baseline %.4f ms (>2x)\n",
                   name.c_str(), e->ms.median, value);
      ++failures;
    }
  }
  double best = 0;
  for (const Entry& e : entries) {
    // Sweep entries carry CB-vs-CB scaling, not II-vs-CB speedups —
    // keep them out of the best-II floor.
    if (e.name.find("/shard") != std::string::npos) continue;
    if (e.name.rfind("qa/", 0) == 0 || e.name.rfind("qb/", 0) == 0) {
      best = std::max(best, e.speedup);
    }
  }
  if (best < 2.0) {
    std::fprintf(stderr, "REGRESSION: best II-vs-CB speedup %.2fx < 2x\n",
                 best);
    ++failures;
  }
  if (failures == 0) {
    std::printf("perf check passed (best II %.1fx%s)\n", best,
                quick ? "" : "; ms baselines are quick-mode, not checked");
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  const bool quick = FlagValue(argc, argv, "quick", "") == "1" ||
                     std::count_if(argv + 1, argv + argc, [](const char* a) {
                       return std::strcmp(a, "--quick") == 0;
                     }) > 0;
  const std::string json = FlagValue(argc, argv, "json", "");
  const std::string check = FlagValue(argc, argv, "check", "");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--quick" && arg.rfind("--json=", 0) != 0 &&
        arg.rfind("--check=", 0) != 0) {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: bench_ii_kernels [--quick] [--json=PATH] "
                   "[--check=THRESHOLDS]\n",
                   arg.c_str());
      return 2;
    }
  }

  const std::string provenance = Provenance(quick);
  std::printf("provenance: %s\n", provenance.c_str());
  // Runs per query/session/ingest entry; the cheap kernel pairs and the
  // per-query loopback samples take more (see their parts), and so do the
  // quick-mode query timings, whose QA1 ratio is gated.
  const size_t runs = quick ? 5 : 7;
  std::vector<Entry> entries;
  RunMicrobenches(quick, &entries);
  RunQuerysets(quick, quick ? 11 : runs, &entries);
  RunShardSweep(quick, runs, &entries);
#ifdef SOLAP_SHARD_MAIN_PATH
  RunDistributedLoopback(quick, &entries);
#endif
  RunIngestThroughput(quick, runs, &entries);
  if (!json.empty()) WriteJson(json, provenance, entries, quick);
  if (!check.empty()) return Check(check, entries, quick);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace solap

int main(int argc, char** argv) { return solap::bench::Main(argc, argv); }
