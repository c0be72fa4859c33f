#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "solap/net/json.h"

namespace perfbench {

using solap::net::JsonParse;
using solap::net::JsonValue;

std::mt19937_64 Rng(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream),
                    static_cast<uint32_t>(stream >> 32)};
  return std::mt19937_64(seq);
}

namespace {

double NumberOr(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->IsNumber() ? (v->is_int ? static_cast<double>(v->i) : v->d)
                                       : fallback;
}

void DecodeBody(const std::string& body, Reply* r) {
  auto parsed = JsonParse(body);
  if (!parsed.ok()) {
    r->error = "undecodable response: " + parsed.status().ToString();
    return;
  }
  const JsonValue& root = *parsed;
  const JsonValue* status = root.Find("status");
  if (status == nullptr || !status->IsString() || status->s != "ok") {
    r->error = "response status is not ok: " + body.substr(0, 200);
    return;
  }
  r->wait_ms = NumberOr(root, "wait_ms", 0);
  r->exec_ms = NumberOr(root, "exec_ms", 0);
  r->session = static_cast<long long>(NumberOr(root, "session", -1));
  r->num_cells = static_cast<size_t>(NumberOr(root, "num_cells", 0));
  r->events = static_cast<int64_t>(NumberOr(root, "events", 0));
  if (const JsonValue* cells = root.Find("cells"); cells != nullptr) {
    r->cells.reserve(cells->items.size());
    for (const JsonValue& c : cells->items) {
      CellOut out;
      if (const JsonValue* key = c.Find("key"); key != nullptr) {
        for (const JsonValue& k : key->items) out.key.push_back(k.s);
      }
      out.value = NumberOr(c, "value", 0);
      r->cells.push_back(std::move(out));
    }
  }
  if (const JsonValue* trace = root.Find("trace");
      trace != nullptr && trace->IsString()) {
    r->trace = trace->s;
    // The rendered field is ,"trace":<escaped string>.
    r->body_bytes -= 9 + solap::net::JsonString(r->trace).size();
  }
}

/// One line of TraceContext::ToString: an indented span name, its wall
/// and self milliseconds, then "key=value" counters and notes.
struct SpanLine {
  int depth = 0;
  std::string name;
  double wall_ms = 0;
  double self_ms = 0;
  std::string rest;  // counters and notes
};

std::vector<SpanLine> ParseTrace(const std::string& text) {
  std::vector<SpanLine> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t indent = line.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    SpanLine s;
    s.depth = static_cast<int>(indent / 2);
    size_t name_end = line.find(' ', indent);
    if (name_end == std::string::npos) continue;
    s.name = line.substr(indent, name_end - indent);
    int consumed = 0;
    if (std::sscanf(line.c_str() + name_end, " %lf ms self %lf ms%n",
                    &s.wall_ms, &s.self_ms, &consumed) != 2) {
      continue;
    }
    s.rest = line.substr(name_end + static_cast<size_t>(consumed));
    out.push_back(std::move(s));
  }
  return out;
}

uint64_t CounterOf(const std::string& rest, const std::string& key) {
  const std::string needle = "  " + key + "=";
  size_t at = rest.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(rest.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

Reply Endpoint::Post(const std::string& target, std::string body,
                     std::vector<std::pair<std::string, std::string>> headers,
                     bool traced) const {
  solap::net::HttpRequest req;
  req.method = "POST";
  req.target = target;
  req.version = "HTTP/1.1";
  req.headers = std::move(headers);
  if (traced) req.headers.emplace_back("x-solap-trace", "1");
  req.body = std::move(body);

  Reply r;
  r.sent = Clock::now();
  solap::net::HttpResponse resp = router_.Dispatch(req);
  r.wall_ms = MsBetween(r.sent, Clock::now());
  r.status = resp.status;
  r.body_bytes = resp.body.size();
  if (resp.status != 200) {
    r.error = "HTTP " + std::to_string(resp.status) + ": " +
              resp.body.substr(0, 200);
    return r;
  }
  DecodeBody(resp.body, &r);
  return r;
}

void PassLog::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 5) failures.push_back(what);
}

void PassLog::RecordQuery(const Reply& r, double latency_ms) {
  ++attempted;
  if (r.status == 429) ++shed;
  if (!r.ok()) {
    Fail(r.error);
    return;
  }
  ++queries;
  query_ms.push_back(latency_ms);
  query_sent.push_back(r.sent);
  wait_ms.push_back(r.wait_ms);
  exec_ms.push_back(r.exec_ms);
  net_overhead_ms += std::max(0.0, r.wall_ms - r.wait_ms - r.exec_ms);
  response_bytes += static_cast<double>(r.body_bytes);
  if (r.trace.empty()) return;

  bool executed = false, via_ii = false;
  std::vector<double> shard_walls;
  for (const SpanLine& s : ParseTrace(r.trace)) {
    span_self_ms[s.name] += s.self_ms;
    span_wall_ms[s.name] += s.wall_ms;
    if (s.name == "cb.group") cb_sequences += CounterOf(s.rest, "sequences");
    if (s.name == "exec.ii") via_ii = executed = true;
    if (s.name == "exec.cb" || s.name == "exec.regex") executed = true;
    if (s.name == "shard.exec") shard_walls.push_back(s.wall_ms);
  }
  exec_total += executed ? 1 : 0;
  exec_ii += via_ii ? 1 : 0;
  if (shard_walls.size() > 1) {
    double sum = 0, mx = 0;
    for (double w : shard_walls) {
      sum += w;
      mx = std::max(mx, w);
    }
    const double mean = sum / static_cast<double>(shard_walls.size());
    if (mean > 0) {
      skew_sum += mx / mean;
      ++skew_queries;
    }
  }
}

void PassLog::RecordIngest(const Reply& r, double latency_ms) {
  ++attempted;
  if (!r.ok()) {
    Fail(r.error);
    return;
  }
  ++batches;
  events += static_cast<uint64_t>(r.events);
  op_ms.push_back(latency_ms);
  op_sent.push_back(r.sent);
  for (const SpanLine& s : ParseTrace(r.trace)) {
    if (s.depth == 0) ingest_commit_ms += s.wall_ms;
    span_self_ms[s.name] += s.self_ms;
    span_wall_ms[s.name] += s.wall_ms;
  }
}

void PassLog::Merge(PassLog&& o) {
  auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(query_ms, o.query_ms);
  append(op_ms, o.op_ms);
  append(wait_ms, o.wait_ms);
  append(exec_ms, o.exec_ms);
  query_sent.insert(query_sent.end(), o.query_sent.begin(), o.query_sent.end());
  op_sent.insert(op_sent.end(), o.op_sent.begin(), o.op_sent.end());
  attempted += o.attempted;
  failed += o.failed;
  for (auto& f : o.failures) {
    if (failures.size() < 5) failures.push_back(std::move(f));
  }
  net_overhead_ms += o.net_overhead_ms;
  response_bytes += o.response_bytes;
  queries += o.queries;
  shed += o.shed;
  batches += o.batches;
  events += o.events;
  parse_ms += o.parse_ms;
  parses += o.parses;
  decode_ms += o.decode_ms;
  delta_bytes += o.delta_bytes;
  max_send_late_ms = std::max(max_send_late_ms, o.max_send_late_ms);
  for (const auto& [k, v] : o.span_self_ms) span_self_ms[k] += v;
  for (const auto& [k, v] : o.span_wall_ms) span_wall_ms[k] += v;
  cb_sequences += o.cb_sequences;
  exec_ii += o.exec_ii;
  exec_total += o.exec_total;
  skew_sum += o.skew_sum;
  skew_queries += o.skew_queries;
  ingest_commit_ms += o.ingest_commit_ms;
}

std::string CompareCells(const Reply& reply, const solap::SCuboid& ref) {
  if (reply.num_cells != ref.num_cells()) {
    return "cell count " + std::to_string(reply.num_cells) + " != reference " +
           std::to_string(ref.num_cells());
  }
  auto same = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  std::unordered_map<std::string, double> by_key;
  for (const auto& [key, cell] : ref.cells()) {
    std::string k;
    for (size_t d = 0; d < key.size(); ++d) k += ref.LabelOf(d, key[d]) + '\x1f';
    by_key.emplace(std::move(k), cell.Value(ref.agg()));
  }
  const auto top = ref.TopCells(reply.cells.size());
  for (size_t i = 0; i < reply.cells.size(); ++i) {
    const CellOut& c = reply.cells[i];
    std::string k;
    for (const std::string& label : c.key) k += label + '\x1f';
    auto it = by_key.find(k);
    if (it == by_key.end()) return "cell " + k + " absent from the reference";
    if (!same(c.value, it->second)) {
      return "cell value " + Num(c.value) + " != reference " + Num(it->second);
    }
    if (i < top.size() && !same(c.value, top[i].second)) {
      return "cell rank " + std::to_string(i) + " value " + Num(c.value) +
             " != reference top value " + Num(top[i].second);
    }
  }
  return "";
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// The TailQuantile window of each sample, by its send time.
std::vector<size_t> WindowOf(const std::vector<Clock::time_point>& sent) {
  std::vector<size_t> out(sent.size(), 0);
  if (sent.empty()) return out;
  const auto [first, last] = std::minmax_element(sent.begin(), sent.end());
  const double span = MsBetween(*first, *last);
  for (size_t i = 0; i < sent.size(); ++i) {
    const double at = span > 0 ? MsBetween(*first, sent[i]) / span : 0;
    out[i] = std::min(static_cast<size_t>(at * kTailWindows),
                      static_cast<size_t>(kTailWindows - 1));
  }
  return out;
}

}  // namespace

double TailQuantile(const std::vector<double>& v,
                    const std::vector<Clock::time_point>& sent, double q) {
  if (sent.size() != v.size()) return std::nan("");
  const std::vector<size_t> window = WindowOf(sent);
  std::vector<std::vector<double>> samples(kTailWindows);
  for (size_t i = 0; i < v.size(); ++i) samples[window[i]].push_back(v[i]);
  std::vector<double> tails;
  for (std::vector<double>& w : samples) {
    if (!w.empty()) tails.push_back(Quantile(std::move(w), q));
  }
  return Quantile(std::move(tails), 0.5);
}

double TailRate(const std::vector<double>& units,
                const std::vector<double>& busy_ms,
                const std::vector<Clock::time_point>& sent) {
  if (sent.size() != units.size() || sent.size() != busy_ms.size()) {
    return std::nan("");
  }
  const std::vector<size_t> window = WindowOf(sent);
  std::vector<double> sum_units(kTailWindows), sum_ms(kTailWindows);
  for (size_t i = 0; i < units.size(); ++i) {
    sum_units[window[i]] += units[i];
    sum_ms[window[i]] += busy_ms[i];
  }
  std::vector<double> rates;
  for (size_t w = 0; w < sum_ms.size(); ++w) {
    if (sum_ms[w] > 0) rates.push_back(sum_units[w] * 1000.0 / sum_ms[w]);
  }
  return Quantile(std::move(rates), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& base, bool in_json) {
  Entry e;
  e.name = name;
  e.unit = unit;
  e.base = base;
  e.value = value;
  e.in_json = in_json;
  entries_.push_back(std::move(e));
}

void Report::Absent(const std::string& name, const std::string& unit,
                    const std::string& reason, bool in_json) {
  Entry e;
  e.name = name;
  e.unit = unit;
  e.absent = reason;
  e.in_json = in_json;
  entries_.push_back(std::move(e));
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const Entry& e : entries_) {
    if (e.absent.empty()) {
      std::printf("  %-40s %14.6g %-6s  (%s)\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.base.c_str());
    } else {
      std::printf("  %-40s %14s %-6s  (absent: %s)\n", e.name.c_str(), "-",
                  e.unit.c_str(), e.absent.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.in_json) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + e.name + "\": {\"value\": " + Num(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
