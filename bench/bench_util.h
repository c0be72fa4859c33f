// Shared helpers for the experiment harnesses: aligned table printing,
// per-query measurement records, and tiny flag parsing.
//
// Each bench binary regenerates one table/figure of the paper's §5
// evaluation; see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured comparison.
#ifndef SOLAP_BENCH_BENCH_UTIL_H_
#define SOLAP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "solap/common/stats.h"
#include "solap/common/timer.h"
#include "solap/engine/engine.h"
#include "solap/engine/operations.h"

namespace solap {
namespace bench {

/// Measurement of one query under one strategy.
struct Measurement {
  std::string label;
  double runtime_ms = 0;
  uint64_t sequences_scanned = 0;
  uint64_t index_bytes_built = 0;
  size_t cells = 0;
};

/// Runs `spec` on `engine` with `strategy`, capturing runtime and the
/// stats delta; optionally hands back the result cuboid. Exits the process
/// on engine errors (benches are scripts). Templated on the engine type:
/// SOlapEngine and ShardedEngine share the Execute/StatsSnapshot surface,
/// so the shard-count sweep drives the same harness.
template <typename Engine>
Measurement RunQuery(Engine& engine, const CuboidSpec& spec,
                     ExecStrategy strategy, const std::string& label,
                     std::shared_ptr<const SCuboid>* out = nullptr) {
  Measurement m;
  m.label = label;
  const ScanStats before = engine.StatsSnapshot();
  Timer t;
  auto r = engine.Execute(spec, strategy);
  m.runtime_ms = t.ElapsedMs();
  if (!r.ok()) {
    std::fprintf(stderr, "query '%s' failed: %s\n", label.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  m.cells = (*r)->num_cells();
  const ScanStats after = engine.StatsSnapshot();
  m.sequences_scanned = after.sequences_scanned - before.sequences_scanned;
  m.index_bytes_built = after.index_bytes_built - before.index_bytes_built;
  if (out != nullptr) *out = *r;
  return m;
}

inline double Mb(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Prints a Table-1-style row block comparing CB and II measurements.
inline void PrintComparisonTable(const std::vector<Measurement>& cb,
                                 const std::vector<Measurement>& ii) {
  std::printf("%-10s | %12s %14s | %12s %14s %12s\n", "Query",
              "CB time(ms)", "CB seqs", "II time(ms)", "II seqs",
              "II size(MB)");
  std::printf("%.*s\n", 86,
              "---------------------------------------------------------"
              "-----------------------------");
  double cb_t = 0, ii_t = 0;
  uint64_t cb_s = 0, ii_s = 0, ii_b = 0;
  for (size_t i = 0; i < cb.size(); ++i) {
    std::printf("%-10s | %12.2f %14llu | %12.2f %14llu %12.3f\n",
                cb[i].label.c_str(), cb[i].runtime_ms,
                static_cast<unsigned long long>(cb[i].sequences_scanned),
                ii[i].runtime_ms,
                static_cast<unsigned long long>(ii[i].sequences_scanned),
                Mb(ii[i].index_bytes_built));
    cb_t += cb[i].runtime_ms;
    cb_s += cb[i].sequences_scanned;
    ii_t += ii[i].runtime_ms;
    ii_s += ii[i].sequences_scanned;
    ii_b += ii[i].index_bytes_built;
  }
  std::printf("%-10s | %12.2f %14llu | %12.2f %14llu %12.3f\n", "TOTAL",
              cb_t, static_cast<unsigned long long>(cb_s), ii_t,
              static_cast<unsigned long long>(ii_s), Mb(ii_b));
}

/// Runs a QuerySet-A-style iterative session (paper §5.2): the first query
/// is `initial`; each follow-up slices the previous result's highest cell
/// and APPENDs a fresh pattern symbol over `append_ref`. Returns one
/// measurement per query.
template <typename Engine>
std::vector<Measurement> RunQaSession(Engine& engine, ExecStrategy strategy,
                                      const CuboidSpec& initial,
                                      size_t num_queries,
                                      const LevelRef& append_ref) {
  std::vector<Measurement> out;
  CuboidSpec spec = initial;
  std::shared_ptr<const SCuboid> last;
  for (size_t q = 0; q < num_queries; ++q) {
    if (q > 0) {
      CellKey top = last->ArgMaxCell();
      if (top.empty()) break;
      auto sliced = ops::SliceToCell(spec, *last, top);
      if (!sliced.ok()) {
        std::fprintf(stderr, "slice failed: %s\n",
                     sliced.status().ToString().c_str());
        std::exit(1);
      }
      auto appended =
          ops::Append(*sliced, "S" + std::to_string(q), append_ref);
      if (!appended.ok()) {
        std::fprintf(stderr, "append failed: %s\n",
                     appended.status().ToString().c_str());
        std::exit(1);
      }
      spec = *appended;
    }
    const ScanStats before = engine.StatsSnapshot();
    Timer t;
    auto r = engine.Execute(spec, strategy);
    Measurement m;
    m.runtime_ms = t.ElapsedMs();
    m.label = "QA" + std::to_string(q + 1);
    if (!r.ok()) {
      std::fprintf(stderr, "query %s failed: %s\n", m.label.c_str(),
                   r.status().ToString().c_str());
      std::exit(1);
    }
    last = *r;
    m.cells = last->num_cells();
    const ScanStats after = engine.StatsSnapshot();
    m.sequences_scanned = after.sequences_scanned - before.sequences_scanned;
    m.index_bytes_built = after.index_bytes_built - before.index_bytes_built;
    out.push_back(m);
  }
  return out;
}

/// Prints a Figure-16-style block: cumulative runtimes with cumulative
/// (bracketed) thousands of sequences scanned, per strategy.
inline void PrintCumulativeSeries(const std::vector<Measurement>& cb,
                                  const std::vector<Measurement>& ii) {
  std::printf("%-6s | %16s %14s | %16s %14s\n", "Query", "CB cum time(ms)",
              "CB cum seqs(k)", "II cum time(ms)", "II cum seqs(k)");
  std::printf("%.*s\n", 76,
              "---------------------------------------------------------"
              "--------------------");
  double cb_t = 0, ii_t = 0;
  double cb_s = 0, ii_s = 0;
  for (size_t i = 0; i < cb.size() && i < ii.size(); ++i) {
    cb_t += cb[i].runtime_ms;
    ii_t += ii[i].runtime_ms;
    cb_s += static_cast<double>(cb[i].sequences_scanned) / 1000.0;
    ii_s += static_cast<double>(ii[i].sequences_scanned) / 1000.0;
    std::printf("%-6s | %16.2f %14.2f | %16.2f %14.2f\n",
                cb[i].label.c_str(), cb_t, cb_s, ii_t, ii_s);
  }
}

/// Minimal --key=value flag lookup.
inline std::string FlagValue(int argc, char** argv, const std::string& key,
                             const std::string& default_value) {
  std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return default_value;
}

/// Parses "a,b,c" into numbers.
inline std::vector<size_t> ParseSizeList(const std::string& s) {
  std::vector<size_t> out;
  size_t start = 0;
  while (start < s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(static_cast<size_t>(
        std::strtoull(s.substr(start, comma - start).c_str(), nullptr, 10)));
    start = comma + 1;
  }
  return out;
}

inline std::vector<double> ParseDoubleList(const std::string& s) {
  std::vector<double> out;
  size_t start = 0;
  while (start < s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::strtod(s.substr(start, comma - start).c_str(),
                              nullptr));
    start = comma + 1;
  }
  return out;
}

}  // namespace bench
}  // namespace solap

#endif  // SOLAP_BENCH_BENCH_UTIL_H_
