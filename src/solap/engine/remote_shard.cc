#include "solap/engine/remote_shard.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "solap/common/failpoint.h"
#include "solap/net/http_client.h"
#include "solap/net/json.h"

namespace solap {

namespace {

/// Strategy wire names — the same cb|ii|auto tokens X-Solap-Strategy uses.
const char* StrategyWireName(ExecStrategy strategy) {
  switch (strategy) {
    case ExecStrategy::kCounterBased:
      return "cb";
    case ExecStrategy::kInvertedIndex:
      return "ii";
    case ExecStrategy::kAuto:
      return "auto";
  }
  return "auto";
}

Status StatusFromCodeName(const std::string& name, std::string msg) {
  if (name == "InvalidArgument") return Status::InvalidArgument(std::move(msg));
  if (name == "NotFound") return Status::NotFound(std::move(msg));
  if (name == "AlreadyExists") return Status::AlreadyExists(std::move(msg));
  if (name == "OutOfRange") return Status::OutOfRange(std::move(msg));
  if (name == "ParseError") return Status::ParseError(std::move(msg));
  if (name == "NotImplemented") return Status::NotImplemented(std::move(msg));
  if (name == "Cancelled") return Status::Cancelled(std::move(msg));
  if (name == "DeadlineExceeded") {
    return Status::DeadlineExceeded(std::move(msg));
  }
  if (name == "ResourceExhausted") {
    return Status::ResourceExhausted(std::move(msg));
  }
  if (name == "Unavailable") return Status::Unavailable(std::move(msg));
  return Status::Internal(std::move(msg));
}

/// Maps a non-200 shard response back into the Status the shard meant.
/// The error body carries the code by name (net/query_routes.cc's
/// JsonErrorResponse shape); a body we cannot parse — a mid-crash torn
/// answer, a proxy page — classifies by HTTP status alone.
Status MapApplicationError(const net::ClientResponse& resp) {
  auto parsed = net::JsonParse(resp.body);
  if (parsed.ok() && parsed->IsObject()) {
    const net::JsonValue* code = parsed->Find("code");
    const net::JsonValue* message = parsed->Find("message");
    if (code != nullptr && code->IsString()) {
      return StatusFromCodeName(code->s,
                                message != nullptr && message->IsString()
                                    ? message->s
                                    : "shard error");
    }
  }
  switch (resp.status) {
    case 429:
      return Status::ResourceExhausted("shard answered 429");
    case 503:
      return Status::Unavailable("shard answered 503");
    case 504:
      return Status::DeadlineExceeded("shard answered 504");
    default:
      break;
  }
  if (resp.status >= 400 && resp.status < 500) {
    return Status::InvalidArgument("shard answered " +
                                   std::to_string(resp.status));
  }
  return Status::Internal("shard answered " + std::to_string(resp.status));
}

/// Renders one row value for the /shard/append payload. Typed by JSON kind
/// (string / integer / number / null), which the receiver's schema-driven
/// ValidateRow accepts directly; doubles use the strict %.17g form so a
/// finite value round-trips bit-exactly.
Result<std::string> AppendWireValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return std::string("null");
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      return std::to_string(v.int64());
    case ValueType::kDouble:
      return net::JsonFiniteNumber(v.dbl());
    case ValueType::kString:
      return net::JsonString(v.str());
  }
  return Status::InvalidArgument("unencodable value type");
}

}  // namespace

RemoteShardClient::RemoteShardClient(size_t shard_index,
                                     ShardEndpoint endpoint,
                                     RemoteShardOptions options,
                                     MetricsRegistry* metrics)
    : shard_index_(shard_index),
      endpoint_(std::move(endpoint)),
      options_(std::move(options)) {
  if (metrics != nullptr) {
    retries_counter_ = metrics->counter("shard_rpc_retries");
  }
}

bool RemoteShardClient::IsTransportError(const Status& s) {
  // kUnavailable: the bytes never made it (or never came back).
  // kInternal: the shard's own transient machinery failed (its 500s map
  // here) — the same class storage retries treat as transient.
  // kParseError: bytes arrived but are corrupt (torn write, CRC mismatch);
  // a fresh exchange produces fresh bytes.
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kInternal ||
         s.code() == StatusCode::kParseError;
}

std::chrono::steady_clock::time_point RemoteShardClient::Deadline(
    const StopToken* stop) const {
  auto deadline = stop != nullptr
                      ? stop->deadline()
                      : std::chrono::steady_clock::time_point::max();
  if (deadline == std::chrono::steady_clock::time_point::max() &&
      options_.default_timeout.count() > 0) {
    deadline = std::chrono::steady_clock::now() + options_.default_timeout;
  }
  return deadline;
}

Result<std::string> RemoteShardClient::Post(
    const char* path, const std::string& body,
    std::chrono::steady_clock::time_point deadline, const StopToken* stop) {
  SOLAP_FAILPOINT("shard.rpc.send");
  // Propagate the remaining budget so the shard stops executing when the
  // coordinator has already given up waiting.
  std::vector<std::pair<std::string, std::string>> headers = {
      {"Content-Type", "application/json"}};
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    headers.emplace_back(
        "X-Solap-Deadline-Ms",
        std::to_string(std::max<int64_t>(left.count(), 1)));
  }
  auto resp = net::HttpExchange(endpoint_.host, endpoint_.port, "POST", path,
                                body, headers, deadline, stop);
  {
    Status injected = SOLAP_FAILPOINT_CHECK("shard.rpc.recv");
    if (!injected.ok()) return injected;
  }
  if (!resp.ok()) return resp.status();
  if (resp->status != 200) return MapApplicationError(*resp);
  return std::move(resp->body);
}

Result<ShardPartial> RemoteShardClient::AttemptOnce(
    const std::string& body, std::chrono::steady_clock::time_point deadline,
    const StopToken* stop, TraceContext* trace) {
  SOLAP_ASSIGN_OR_RETURN(std::string answer,
                         Post("/shard/exec", body, deadline, stop));
  {
    Status injected = SOLAP_FAILPOINT_CHECK("shard.rpc.decode");
    if (!injected.ok()) return injected;
  }
  TraceSpan span(trace, "shard.decode");
  span.Count("shard", shard_index_);
  span.Count("bytes", answer.size());
  auto partial = DecodeShardPartial(answer);
  if (!partial.ok()) span.Note("error", partial.status().ToString());
  return partial;
}

Result<ShardPartial> RemoteShardClient::Execute(const CuboidSpec& spec,
                                                ExecStrategy strategy,
                                                const StopToken* stop,
                                                TraceContext* trace,
                                                ScanStats* stats) {
  const auto deadline = Deadline(stop);
  const std::string body = "{\"v\":" + std::to_string(kShardWireVersion) +
                           ",\"strategy\":\"" + StrategyWireName(strategy) +
                           "\",\"spec\":" + EncodeCuboidSpec(spec) + "}";

  RetryBudget budget(options_.retry, deadline);
  Status last = Status::Unavailable("shard rpc never attempted");
  while (budget.BeforeAttempt(stop)) {
    if (budget.retries() > 0) {
      if (stats != nullptr) ++stats->shard_rpc_retries;
      if (retries_counter_ != nullptr) retries_counter_->Inc();
    }
    TraceSpan span(trace, "shard.rpc");
    span.Count("shard", shard_index_);
    span.Count("attempt", static_cast<uint64_t>(budget.attempts_started()));
    auto r = AttemptOnce(body, deadline, stop, trace);
    if (r.ok()) {
      if (stats != nullptr) *stats += r->stats;
      span.Count("cells", r->cuboid->num_cells());
      return r;
    }
    last = r.status();
    span.Note("error", last.ToString());
    if (!IsTransportError(last)) return last;
  }
  return last;
}

Status RemoteShardClient::Append(const std::vector<std::vector<Value>>& rows,
                                 const std::vector<DictUpdate>& dicts,
                                 const StopToken* stop, TraceContext* trace) {
  std::ostringstream payload;
  payload << "{\"dicts\":[";
  for (size_t i = 0; i < dicts.size(); ++i) {
    if (i != 0) payload << ",";
    payload << "{\"col\":" << dicts[i].col << ",\"from\":" << dicts[i].from
            << ",\"values\":[";
    for (size_t j = 0; j < dicts[i].values.size(); ++j) {
      if (j != 0) payload << ",";
      payload << net::JsonString(dicts[i].values[j]);
    }
    payload << "]}";
  }
  payload << "],\"rows\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r != 0) payload << ",";
    payload << "[";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c != 0) payload << ",";
      SOLAP_ASSIGN_OR_RETURN(std::string v, AppendWireValue(rows[r][c]));
      payload << v;
    }
    payload << "]";
  }
  payload << "]}";
  const std::string body = EncodeShardEnvelope(payload.str());

  TraceSpan span(trace, "shard.rpc");
  span.Note("rpc", "append");
  span.Count("shard", shard_index_);
  span.Count("rows", rows.size());
  auto answer = Post("/shard/append", body, Deadline(stop), stop);
  if (!answer.ok()) {
    span.Note("error", answer.status().ToString());
    return answer.status();
  }
  return Status::OK();
}

}  // namespace solap
