// Service metrics: lock-free counters and log-scale latency histograms
// behind a name-keyed registry. The query service records queue depth,
// wait/exec latencies and cache hit rates here; the shell's `metrics`
// command prints Snapshot()s. Counters and histograms are
// safe to update from any number of threads; the registry hands out stable
// pointers so hot paths look a metric up once and cache it.
#ifndef SOLAP_COMMON_METRICS_H_
#define SOLAP_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace solap {

/// \brief Monotonic event counter.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Point-in-time value (resident bytes, budget sizes): set, not
/// accumulated. Refreshed on read paths (QueryService::RefreshResourceMetrics)
/// rather than on every mutation of the underlying quantity.
class Gauge {
 public:
  void Set(uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Latency histogram over power-of-two microsecond buckets.
///
/// Bucket i counts observations in [2^(i-1), 2^i) microseconds (bucket 0:
/// < 1us); the last bucket is open-ended. Quantiles are reported as the
/// upper bound of the bucket holding the quantile — coarse (factor-2) but
/// allocation-free and wait-free to record.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 28;  // up to ~134s

  /// Upper bound of bucket `i` in microseconds: 2^i (bucket 0 covers
  /// < 1us; the last bucket is rendered as +Inf in Prometheus output).
  static double BucketUpperUs(size_t i) {
    return static_cast<double>(uint64_t{1} << i);
  }

  void ObserveMs(double ms) { ObserveUs(ms * 1000.0); }
  void ObserveUs(double us);

  struct Snapshot {
    uint64_t count = 0;
    double sum_ms = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    /// Per-bucket observation counts (not cumulative); bucket i counts
    /// observations in [2^(i-1), 2^i) us.
    std::array<uint64_t, kNumBuckets> buckets = {};
  };
  Snapshot TakeSnapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
};

/// \brief Name-keyed set of counters and histograms.
///
/// counter()/histogram() get-or-create under a mutex and return pointers
/// that stay valid for the registry's lifetime. Snapshot()/ToString()
/// render every metric in name order.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, uint64_t>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// Aligned text rendering of a full snapshot (shell `metrics` command).
  std::string ToString() const;

  /// Prometheus text exposition (version 0.0.4) of a full snapshot, every
  /// name prefixed `solap_` (shell `metrics --prometheus`). Histograms are
  /// rendered with cumulative `_bucket{le="..."}` series in milliseconds
  /// plus `_sum` / `_count`.
  std::string ToPrometheus() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace solap

#endif  // SOLAP_COMMON_METRICS_H_
