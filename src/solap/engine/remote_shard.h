// RemoteShardClient: the transport ShardedEngine's scatter path uses when
// its shards are processes instead of threads (ISSUE 9, ROADMAP item 1's
// hard half). One client fronts one shard server (tools/shard_main.cc)
// and turns "execute this spec on your slice" into POST /shard/exec over
// net/http_client, decoding the CRC-tagged partial (cube/partial_codec.h)
// that comes back.
//
// Robustness contract, in order of application:
//  - deadline: every attempt (connect/send/recv and backoff sleeps alike)
//    lives under the caller's absolute deadline, read from the StopToken
//    that QueryService derived from SubmitOptions.timeout;
//  - retries: transport-class failures (kUnavailable, kInternal, and
//    corrupt-bytes kParseError) retry under a full-jitter RetryBudget
//    (common/retry.h); application-class failures (InvalidArgument,
//    NotFound, ResourceExhausted, ...) return immediately — the shard
//    understood the request and said no, asking again changes nothing.
//
// Appends (POST /shard/append) share the exec attempt's POST: deadline
// header, failpoints and error mapping, but are sent once. The caller
// (ShardedEngine) tracks which dictionary entries each server has
// acknowledged and sends every tail from there.
//
// Failpoints shard.rpc.send / shard.rpc.recv / shard.rpc.decode arm the
// three client-side failure stages; spans shard.rpc (per attempt) and
// shard.decode record where distributed wall time goes.
#ifndef SOLAP_ENGINE_REMOTE_SHARD_H_
#define SOLAP_ENGINE_REMOTE_SHARD_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "solap/common/metrics.h"
#include "solap/common/retry.h"
#include "solap/common/stats.h"
#include "solap/common/stop.h"
#include "solap/common/trace.h"
#include "solap/cube/partial_codec.h"
#include "solap/engine/engine.h"

namespace solap {

/// Where one shard server listens.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// What a coordinator does with a query when a shard stays down past its
/// retry budget (DESIGN.md §10 policy table).
enum class DegradePolicy {
  /// Fail the query with kUnavailable — never answer from partial data.
  kStrict,
  /// Answer anyway: re-execute the missing slice on the local shard
  /// executor when the coordinator holds the data, else return a partial
  /// answer with the missing shards flagged (X-Solap-Partial).
  kDegraded,
};

/// \brief Per-client robustness knobs.
struct RemoteShardOptions {
  /// Transport-failure retry schedule. Full jitter by default: a fleet of
  /// coordinators re-scattering against one recovering shard must spread
  /// out, not re-collide.
  RetryPolicy retry{.max_attempts = 3,
                    .initial_backoff = std::chrono::milliseconds(5),
                    .max_backoff = std::chrono::milliseconds(200),
                    .full_jitter = true};
  /// Deadline applied when the caller's StopToken carries none
  /// (0 = unbounded).
  std::chrono::milliseconds default_timeout{0};
};

/// \brief Blocking RPC client for one shard server.
///
/// Thread-safe: concurrent Execute calls share only the metric counters.
class RemoteShardClient {
 public:
  RemoteShardClient(size_t shard_index, ShardEndpoint endpoint,
                    RemoteShardOptions options,
                    MetricsRegistry* metrics = nullptr);

  const ShardEndpoint& endpoint() const { return endpoint_; }
  size_t shard_index() const { return shard_index_; }

  /// Executes `spec` on the remote shard's slice. On success the decoded
  /// partial's stats have been added into `*stats` (when non-null), along
  /// with any retries this call spent.
  Result<ShardPartial> Execute(const CuboidSpec& spec, ExecStrategy strategy,
                               const StopToken* stop, TraceContext* trace,
                               ScanStats* stats);

  /// One dictionary tail the replica must adopt before re-encoding the
  /// replicated rows: codes [from, from+values.size()) of column `col`.
  struct DictUpdate {
    int col = 0;
    size_t from = 0;
    std::vector<std::string> values;
  };

  /// Replicates an appended row batch (this shard's routed slice of it)
  /// via POST /shard/append. Dictionary tails land first so the replica's
  /// codes stay identical to the coordinator slice's — the precondition
  /// for bit-identical /shard/exec partials. SINGLE attempt, no retry: an
  /// append is not idempotent, and a retry whose predecessor actually
  /// landed would silently double rows; on failure the caller marks the
  /// shard degraded and the supervisor restores it.
  Status Append(const std::vector<std::vector<Value>>& rows,
                const std::vector<DictUpdate>& dicts, const StopToken* stop,
                TraceContext* trace);

  /// True for failures worth retrying: the transport (or the
  /// shard's own transient machinery) failed, rather than the request
  /// being wrong. Exposed for the scatter path's degradation decision.
  static bool IsTransportError(const Status& s);

 private:
  /// The caller's deadline, else options.default_timeout from now.
  std::chrono::steady_clock::time_point Deadline(const StopToken* stop) const;
  /// One POST of `body` to `path`: the X-Solap-Deadline-Ms header, the
  /// shard.rpc.send / shard.rpc.recv failpoints, and a non-200 answer
  /// mapped back to the Status the shard meant. Returns the 200 body.
  Result<std::string> Post(const char* path, const std::string& body,
                           std::chrono::steady_clock::time_point deadline,
                           const StopToken* stop);
  Result<ShardPartial> AttemptOnce(const std::string& body,
                                   std::chrono::steady_clock::time_point
                                       deadline,
                                   const StopToken* stop,
                                   TraceContext* trace);

  size_t shard_index_;
  ShardEndpoint endpoint_;
  RemoteShardOptions options_;
  Counter* retries_counter_ = nullptr;
};

}  // namespace solap

#endif  // SOLAP_ENGINE_REMOTE_SHARD_H_
