// solap_perfbench: the repository benchmark (see README.md).
//
//   solap_perfbench --workload explore|scan|ingest --seed N --seconds S
//                   --trace 0|1 [--source ID]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// runs one untraced pass and reports the end-to-end metrics. --trace 1
// runs an untraced pass and then, on a fresh set-up with the same seed, a
// traced pass, and reports the per-layer breakdown. The answers of every
// pass are checked after it; the run ends with one JSON line, and the exit
// code is non-zero when a request or an answer check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.h"
#include "solap/common/timer.h"
#include "solap/net/json.h"
#include "workloads.h"

namespace perfbench {

solap::ScanStats StatsDelta(const solap::ScanStats& a,
                            const solap::ScanStats& b) {
  solap::ScanStats d;
#define PERFBENCH_DELTA(f) d.f = a.f - b.f
  PERFBENCH_DELTA(sequences_scanned);
  PERFBENCH_DELTA(lists_built);
  PERFBENCH_DELTA(list_intersections);
  PERFBENCH_DELTA(intersections_linear);
  PERFBENCH_DELTA(intersections_galloping);
  PERFBENCH_DELTA(intersections_bitmap);
  PERFBENCH_DELTA(container_array_ops);
  PERFBENCH_DELTA(container_bitmap_ops);
  PERFBENCH_DELTA(container_run_ops);
  PERFBENCH_DELTA(container_gallop_ops);
  PERFBENCH_DELTA(index_bytes_built);
  PERFBENCH_DELTA(repository_hits);
  PERFBENCH_DELTA(index_cache_hits);
  PERFBENCH_DELTA(degraded_queries);
  PERFBENCH_DELTA(shard_scatters);
  PERFBENCH_DELTA(shard_partials);
  PERFBENCH_DELTA(shard_merged_cells);
  PERFBENCH_DELTA(shard_fallbacks);
  PERFBENCH_DELTA(shard_rpc_retries);
  PERFBENCH_DELTA(shard_rpc_hedges);
  PERFBENCH_DELTA(partial_answers);
  PERFBENCH_DELTA(ingested_events);
  PERFBENCH_DELTA(delta_merges);
  PERFBENCH_DELTA(cuboid_patches);
  PERFBENCH_DELTA(stale_cuboid_invalidations);
  PERFBENCH_DELTA(formation_invalidations);
#undef PERFBENCH_DELTA
  return d;
}

namespace {

// setup_s is the median of the timed set-ups. After one untimed cold
// set-up (the process's first allocations and lazy initialisation), the
// workload is set up repeatedly for kSetupWindowS before the pass and again
// after it, at least kMinSetups times each. On a shared machine set-up
// times shift between levels that last seconds; two windows at both ends
// of the pass sample several of them. Tearing a set-up down is not timed.
constexpr double kSetupWindowS = 3.0;
constexpr int kMinSetups = 4;

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

std::string Samples(const char* what, size_t n) {
  return std::to_string(n) + " " + what + " samples";
}

/// What TailQuantile reports, for the report lines.
const std::string kTailP95 =
    "median of the p95s of " + std::to_string(kTailWindows) +
    " equal stretches of the pass, over ";

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// End-to-end metrics of one untraced pass (BENCHMARK.json end_to_end,
/// plus the report-only forms named after what each workload measures).
void ReportEndToEnd(const Workload& w, const PassResult& p,
                    const std::vector<double>& setups, double rss_mb,
                    Report* rep) {
  const PassLog& l = p.log;
  const size_t nq = l.query_ms.size(), nop = l.op_ms.size();
  const char* qwhat = w.writes() ? "dashboard /query (from scheduled send)"
                                 : "/query";
  const char* opwhat = w.writes() ? "/ingest batch" : "/query";
  rep->Add("query_p50_ms", Quantile(l.query_ms, 0.5), "ms",
           std::string("p50 of ") + Samples(qwhat, nq));
  rep->Add("query_p95_ms", TailQuantile(l.query_ms, l.query_sent, 0.95),
           "ms", kTailP95 + Samples(qwhat, nq));
  rep->Add("ops_per_s", p.ops_per_s, "1/s",
           w.writes() ? "events acknowledged per second of /ingest Dispatch "
                        "time, median of " + std::to_string(kTailWindows) +
                            " equal stretches of the pass, over " +
                            Samples(opwhat, nop)
                      : "queries completed per second of the pass, over " +
                            Samples(opwhat, nop));
  rep->Add("op_p50_ms", Quantile(l.op_ms, 0.5), "ms",
           std::string("p50 of ") + Samples(opwhat, nop));
  // Report only: on ingest the writer's tail doubled in slow stretches of
  // a shared machine while its p50 moved by a fifth (README.md
  // "Steadiness and bounds"); elsewhere it repeats query_p95_ms.
  rep->Add("op_p95_ms", TailQuantile(l.op_ms, l.op_sent, 0.95), "ms",
           kTailP95 + Samples(opwhat, nop), false);
  char range[64];
  std::snprintf(range, sizeof range, "; min %.3f s, max %.3f s",
                Quantile(setups, 0), Quantile(setups, 1));
  rep->Add("setup_s", Quantile(setups, 0.5), "s",
           "median of " + std::to_string(setups.size()) +
               " set-ups before and after the pass" + range);
  rep->Add("peak_rss_mb", rss_mb, "MB", "VmHWM after the pass");

  // The same numbers under the names of what they measure; absent where
  // a workload has no such client.
  if (w.writes()) {
    rep->Absent("queries_per_s", "1/s",
                "the dashboard readers are open-loop at a fixed rate", false);
    rep->Add("ingest_events_per_s", p.ops_per_s, "1/s",
             "= ops_per_s", false);
    rep->Add("ingest_p50_ms", Quantile(l.op_ms, 0.5), "ms", "= op_p50_ms",
             false);
    rep->Add("ingest_p95_ms", TailQuantile(l.op_ms, l.op_sent, 0.95), "ms",
             "= op_p95_ms", false);
    rep->Add("feed_events_per_s", static_cast<double>(l.events) / p.wall_s,
             "1/s",
             "events acknowledged per second of the pass: the paced feed "
             "rate while every batch fits its slot", false);
    rep->Add("schedule_late_ms", l.max_send_late_ms, "ms",
             "latest send behind the open-loop schedule", false);
  } else {
    rep->Add("queries_per_s", p.ops_per_s, "1/s",
             "= ops_per_s", false);
    for (const char* m :
         {"ingest_events_per_s", "ingest_p50_ms", "ingest_p95_ms"}) {
      rep->Absent(m, std::strstr(m, "per_s") ? "1/s" : "ms",
                  "this workload posts no /ingest batches", false);
    }
  }
  rep->Add("failed_ratio", Ratio(static_cast<double>(l.failed),
                                 static_cast<double>(l.attempted)),
           "ratio",
           std::to_string(l.failed) + " failed of " +
               std::to_string(l.attempted) + " requests and answer checks",
           false);
}

/// Per-layer metrics (BENCHMARK.json per_layer). Span times and counters
/// come from the traced pass `t`; numbers read off every response
/// (wait_ms, exec_ms, size) come from the untraced pass `u`, which the
/// trace rendering would otherwise inflate.
void ReportLayers(const Workload& w, const PassResult& u, const PassResult& t,
                  Report* rep) {
  const PassLog& tl = t.log;
  const PassLog& ul = u.log;
  const double q = static_cast<double>(tl.queries);
  const double b = static_cast<double>(tl.batches);
  const std::string per_q = "mean per /query over " +
                            std::to_string(tl.queries) + " traced queries";
  const std::string per_b = "mean per /ingest batch over " +
                            std::to_string(tl.batches) + " traced batches";
  const std::string no_batches = "this workload posts no /ingest batches";
  auto span_self = [&](std::initializer_list<const char*> names) {
    double s = 0;
    for (const char* n : names) {
      auto it = tl.span_self_ms.find(n);
      if (it != tl.span_self_ms.end()) s += it->second;
    }
    return Ratio(s, q);
  };
  auto span_wall = [&](std::initializer_list<const char*> names) {
    double s = 0;
    for (const char* n : names) {
      auto it = tl.span_wall_ms.find(n);
      if (it != tl.span_wall_ms.end()) s += it->second;
    }
    return Ratio(s, q);
  };
  auto per_batch = [&](const std::string& name, double total,
                       const std::string& unit) {
    if (b > 0) {
      rep->Add(name, total / b, unit, per_b);
    } else {
      rep->Absent(name, unit, no_batches);
    }
  };
  const solap::ScanStats& s = t.stats;
  const std::string untraced_q =
      " (untraced pass, " + std::to_string(ul.queries) + " queries)";

  rep->Add("net.overhead_ms", Ratio(ul.net_overhead_ms, ul.queries), "ms",
           "mean of Dispatch wall - wait_ms - exec_ms per /query" + untraced_q);
  rep->Add("net.response_kb", Ratio(ul.response_bytes, ul.queries) / 1024.0,
           "KB", "mean /query response body" + untraced_q);
  per_batch("net.ingest_decode_ms", tl.decode_ms, "ms");
  rep->Add("parser.parse_ms", Ratio(tl.parse_ms, tl.parses), "ms",
           "mean ParseStatement time over " + std::to_string(tl.parses) +
               " query texts");
  rep->Add("service.queue_wait_ms.p50", Quantile(ul.wait_ms, 0.5), "ms",
           "p50 of wait_ms" + untraced_q);
  rep->Add("service.queue_wait_ms.p95",
           TailQuantile(ul.wait_ms, ul.query_sent, 0.95), "ms",
           kTailP95 + "wait_ms" + untraced_q);
  rep->Add("service.shed", static_cast<double>(ul.shed), "count",
           "429 responses" + untraced_q);
  rep->Add("engine.exec_ms.p50", Quantile(ul.exec_ms, 0.5), "ms",
           "p50 of exec_ms" + untraced_q);
  rep->Add("engine.exec_ms.p95",
           TailQuantile(ul.exec_ms, ul.query_sent, 0.95), "ms",
           kTailP95 + "exec_ms" + untraced_q);
  if (tl.exec_total > 0) {
    rep->Add("engine.ii_share", Ratio(tl.exec_ii, tl.exec_total), "ratio",
             "II executions / " + std::to_string(tl.exec_total) +
                 " repository misses");
  } else {
    rep->Absent("engine.ii_share", "ratio", "no repository misses");
  }
  rep->Add("cube.repo_hit_ratio", Ratio(s.repository_hits, q), "ratio",
           "repository hits / traced queries");
  per_batch("cube.patches_per_batch", s.cuboid_patches, "count");
  per_batch("cube.invalidations_per_batch", s.stale_cuboid_invalidations,
            "count");
  rep->Add("cube.gather_ms", span_wall({"shard.gather"}), "ms", per_q);
  rep->Add("cube.merged_cells_per_query", Ratio(s.shard_merged_cells, q),
           "count", "shard cells merged / traced queries");
  // Formation runs in whichever of the two needs the groups first: the
  // optimizer (X-Solap-Strategy auto) or prepare.
  rep->Add("seq.prepare_ms", span_self({"optimize", "prepare"}), "ms",
           "optimize + prepare self time, " + per_q);
  per_batch("seq.formation_invalidations_per_batch", s.formation_invalidations,
            "count");
  rep->Add("cb.scan_ms", span_wall({"exec.cb", "exec.degrade_cb"}), "ms",
           "CB execution summed over shards, " + per_q);
  rep->Add("cb.sequences_scanned_per_query", Ratio(tl.cb_sequences, q),
           "count", "sequences of cb.group spans / traced queries");
  rep->Add("shard.scatter_ms", span_wall({"shard.scatter"}), "ms", per_q);
  if (tl.skew_queries > 0) {
    rep->Add("shard.exec_skew", tl.skew_sum / tl.skew_queries, "ratio",
             "slowest / mean shard.exec, mean over " +
                 std::to_string(tl.skew_queries) + " scattered queries");
  } else {
    rep->Absent("shard.exec_skew", "ratio",
                "one shard: no query scatters on this workload");
  }
  rep->Add("index.build_ms", span_self({"ii.build_index"}), "ms", per_q);
  rep->Add("index.join_ms", span_self({"ii.join_extend", "ii.extend_scan"}),
           "ms", per_q);
  rep->Add("index.rollup_ms", span_self({"ii.rollup_merge"}), "ms", per_q);
  rep->Add("index.refine_ms", span_self({"ii.drilldown_refine"}), "ms", per_q);
  rep->Add("index.count_ms", span_self({"ii.count"}), "ms", per_q);
  const std::string over_pass = "over the traced pass";
  rep->Add("index.lists_built", s.lists_built, "count", over_pass);
  rep->Add("index.intersections", s.list_intersections, "count", over_pass);
  rep->Add("index.array_ops", s.container_array_ops, "count", over_pass);
  rep->Add("index.bitmap_ops", s.container_bitmap_ops, "count", over_pass);
  rep->Add("index.run_ops", s.container_run_ops, "count", over_pass);
  rep->Add("index.gallop_ops", s.container_gallop_ops, "count", over_pass);
  rep->Add("index.bytes_built_mb", s.index_bytes_built / 1e6, "MB", over_pass);
  rep->Add("index.cache_hits_per_query", Ratio(s.index_cache_hits, q),
           "count", "index cache hits / traced queries");
  per_batch("ingest.commit_ms", tl.ingest_commit_ms, "ms");
  if (w.writes()) {
    rep->Add("ingest.merge_ms", t.merge_ms, "ms",
             "one foreground MergeDeltasNow of the deltas left after the "
             "pass (0: none left)");
    rep->Add("ingest.merges", static_cast<double>(s.delta_merges), "count",
             "delta merges " + over_pass);
  } else {
    rep->Absent("ingest.merge_ms", "ms", no_batches);
    rep->Absent("ingest.merges", "count", no_batches);
  }
  per_batch("ingest.delta_kb", tl.delta_bytes / 1024.0, "KB");
  rep->Add("mem.governor_mb", t.governor_mb, "MB",
           "memory governor usage after the traced pass");
  rep->Add("mem.index_cache_mb", t.index_cache_mb, "MB",
           "cached inverted indices after the traced pass");
  rep->Add("trace.overhead_ratio",
           Ratio(Quantile(tl.query_ms, 0.5), Quantile(ul.query_ms, 0.5)),
           "ratio", "traced / untraced query_p50_ms");
}

int Usage() {
  std::fprintf(stderr,
               "usage: solap_perfbench --workload explore|scan|ingest "
               "--seed N --seconds S --trace 0|1 [--source ID]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, source = "unknown";
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value.c_str());
    } else if (flag == "--seconds") {
      seconds = std::atoll(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoll(value.c_str());
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  RunConfig cfg;
  cfg.seed = static_cast<uint64_t>(seed);
  cfg.seconds = static_cast<int>(seconds);
  cfg.pass_cap_s = std::max(2.5 * static_cast<double>(seconds),
                            static_cast<double>(seconds) + 10.0);
  std::unique_ptr<Workload> w;
  if (workload == "explore") {
    w = MakeExplore(cfg);
  } else if (workload == "scan") {
    w = MakeScan(cfg);
  } else if (workload == "ingest") {
    w = MakeIngest(cfg);
  } else {
    return Usage();
  }

  std::printf(
      "provenance: {\"source\": %s, \"build_type\": \"%s\", "
      "\"nproc\": %u, \"cpu_model\": %s, \"workload\": \"%s\", "
      "\"seed\": %lld, \"seconds\": %lld, \"trace\": %lld}\n",
      solap::net::JsonString(source).c_str(), PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(),
      solap::net::JsonString(CpuModel()).c_str(), workload.c_str(), seed,
      seconds, trace);

  auto setup = [&](std::vector<double>* times) {
    w->Teardown();
    solap::Timer t;
    solap::Status st = w->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    if (times != nullptr) times->push_back(t.ElapsedSec());
  };

  Report rep;
  PassResult reported;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  if (trace == 0) {
    std::vector<double> setups;
    auto setup_window = [&] {
      solap::Timer window;
      for (int i = 0; i < kMinSetups || window.ElapsedSec() < kSetupWindowS;
           ++i) {
        setup(&setups);
      }
    };
    setup(nullptr);
    setup_window();
    reported = w->Run(false);
    const double rss = PeakRssMb();
    w->Check(&reported);
    setup_window();
    ReportEndToEnd(*w, reported, setups, rss, &rep);
  } else {
    setup(nullptr);
    PassResult untraced = w->Run(false);
    w->Check(&untraced);
    setup(nullptr);
    reported = w->Run(true);
    w->Check(&reported);
    ReportLayers(*w, untraced, reported, &rep);
    attempted += untraced.log.attempted;
    failed += untraced.log.failed;
    failures = untraced.log.failures;
  }
  attempted += reported.log.attempted;
  failed += reported.log.failed;
  failures.insert(failures.end(), reported.log.failures.begin(),
                  reported.log.failures.end());
  rep.Note("data: " + w->data_note());
  if (reported.wall_s >= cfg.pass_cap_s) {
    rep.Note("note: the pass hit its " + Num(cfg.pass_cap_s) +
             " s cap and did less than its fixed work");
  }
  for (const std::string& f : failures) rep.Note("failure: " + f);
  rep.Print(failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}
