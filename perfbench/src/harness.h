// Shared machinery of the repository benchmark: in-process request
// dispatch through the HTTP router, response decoding, latency samples,
// the per-layer accounting of traced runs, and the report writer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "solap/common/stats.h"
#include "solap/cube/cuboid.h"
#include "solap/net/http.h"
#include "solap/net/router.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Deterministic per-purpose random stream derived from the run's seed.
std::mt19937_64 Rng(uint64_t seed, uint64_t stream);

/// One cell of a /query answer as the client sees it.
struct CellOut {
  std::vector<std::string> key;
  double value = 0;
};

/// A decoded /query or /ingest response.
struct Reply {
  int status = 0;
  Clock::time_point sent; // when Dispatch was called
  double wall_ms = 0;     // Router::Dispatch wall time
  double wait_ms = 0;     // service queue wait reported by the response
  double exec_ms = 0;     // service execution time reported by the response
  size_t body_bytes = 0;  // response size without the trace field
  long long session = -1;
  size_t num_cells = 0;
  int64_t events = 0;     // /ingest: rows acknowledged
  std::vector<CellOut> cells;
  std::string trace;      // span tree text (X-Solap-Trace: 1)
  std::string error;      // non-empty when the reply was not a success
  bool ok() const { return error.empty(); }
};

/// Sends requests through BuildSolapRouter's Dispatch, on the calling
/// thread, exactly as the HTTP server's workers do.
class Endpoint {
 public:
  explicit Endpoint(solap::net::Router router) : router_(std::move(router)) {}

  Reply Post(const std::string& target, std::string body,
             std::vector<std::pair<std::string, std::string>> headers,
             bool traced) const;

 private:
  solap::net::Router router_;
};

/// Everything one client thread (or the whole pass, once merged) observed.
struct PassLog {
  std::vector<double> query_ms;  // /query latency samples
  std::vector<double> op_ms;     // the driving client's operation latency
  // Send time of each query_ms / op_ms sample, for TailQuantile.
  std::vector<Clock::time_point> query_sent;
  std::vector<Clock::time_point> op_sent;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages

  // Per-request facts used by the per-layer report.
  std::vector<double> wait_ms;
  std::vector<double> exec_ms;
  double net_overhead_ms = 0;  // sum over /query requests
  double response_bytes = 0;   // sum over /query requests
  uint64_t queries = 0;        // /query requests answered
  uint64_t shed = 0;           // 429 responses
  uint64_t batches = 0;        // /ingest requests answered
  uint64_t events = 0;         // events acknowledged by /ingest
  double parse_ms = 0;         // ParseStatement, summed
  uint64_t parses = 0;
  double decode_ms = 0;        // JsonParse of /ingest bodies, summed
  double delta_bytes = 0;      // DeltaSnapshot after each batch, summed
  double max_send_late_ms = 0; // open loop: latest send behind schedule

  // Span accounting of traced requests: name -> summed self / wall ms.
  std::map<std::string, double> span_self_ms;
  std::map<std::string, double> span_wall_ms;
  uint64_t cb_sequences = 0;       // "sequences" counters of cb.group spans
  uint64_t exec_ii = 0;            // executions that took the II path
  uint64_t exec_total = 0;         // executions (repository misses)
  double skew_sum = 0;             // per scattered query: max / mean shard
  uint64_t skew_queries = 0;
  double ingest_commit_ms = 0;     // QueryService::Ingest span time, summed

  void Fail(const std::string& what);
  /// Records a /query reply: latency, service split and (traced) spans.
  void RecordQuery(const Reply& r, double latency_ms);
  /// Records an /ingest reply.
  void RecordIngest(const Reply& r, double latency_ms);
  void Merge(PassLog&& other);
};

/// Runs a client thread's body; an exception ends that client with a
/// recorded failure instead of terminating the process.
template <typename Body>
void RunClient(PassLog* log, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    log->Fail(std::string("client aborted: ") + e.what());
  }
}

/// Results of one measured pass of a workload.
struct PassResult {
  PassLog log;
  double wall_s = 0;      // wall time of the pass
  // explore and scan: queries over the pass's wall time. ingest:
  // acknowledged events per second of the writer's /ingest Dispatch time
  // (TailRate), since its paced schedule fixes the feed rate.
  double ops_per_s = 0;
  solap::ScanStats stats;     // engine counters accumulated by the pass
  double merge_ms = 0;        // foreground merge of the deltas left over
  double governor_mb = 0;
  double index_cache_mb = 0;
};

/// Compares a reply's cells with a reference cuboid: same cell count, and
/// every returned cell has the reference's value (returned cells are the
/// top cells by value, so their values must also be the reference's top
/// values). Returns an empty string on agreement, else what differs.
std::string CompareCells(const Reply& reply, const solap::SCuboid& ref);

/// Quantile by linear interpolation; NaN for an empty sample.
double Quantile(std::vector<double> v, double q);

/// A tail quantile that one slow stretch of the machine cannot move on its
/// own: the samples are split by send time into kTailWindows windows of
/// equal length, and the result is the median of the windows' quantiles.
constexpr int kTailWindows = 10;
double TailQuantile(const std::vector<double>& v,
                    const std::vector<Clock::time_point>& sent, double q);

/// Units per second of busy time, split the same way: the median over the
/// windows of each window's summed units over its summed busy time.
double TailRate(const std::vector<double>& units,
                const std::vector<double>& busy_ms,
                const std::vector<Clock::time_point>& sent);

/// Peak resident set size of this process so far (MB).
double PeakRssMb();

/// Renders a double with all its digits for the JSON result line.
std::string Num(double v);

/// Ordered metric output: the human-readable report lines and the final
/// JSON object.
class Report {
 public:
  /// A measured metric. `base` says what it is averaged or counted over.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& base, bool in_json = true);
  /// A metric that does not apply to this workload: reported with its
  /// reason; the JSON line, which must carry a number, gets 0.
  void Absent(const std::string& name, const std::string& unit,
              const std::string& reason, bool in_json = true);
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Prints the report and, last, the JSON result line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name, unit, base, absent;
    double value = 0;
    bool in_json = true;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
