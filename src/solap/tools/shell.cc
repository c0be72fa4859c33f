#include "solap/tools/shell.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "solap/common/strings.h"
#include "solap/common/timer.h"
#include "solap/cube/lattice.h"
#include "solap/engine/operations.h"
#include "solap/engine/optimizer.h"
#include "solap/gen/clickstream.h"
#include "solap/gen/synthetic.h"
#include "solap/gen/transit.h"
#include "solap/net/query_routes.h"
#include "solap/parser/parser.h"
#include "solap/storage/csv.h"
#include "solap/storage/io.h"

namespace solap {

namespace {

constexpr const char* kHelp = R"(commands:
  schema <name:type[:measure],...>   types: string,int64,double,timestamp
  load csv <path>                    requires a schema
  load snapshot <path>               binary table snapshot
  save snapshot <path>
  generate transit [passengers]      built-in workloads (with hierarchies)
  generate clickstream [sessions]
  generate synthetic [sequences]
  hierarchy <attr> <lvl0,lvl1,...>   declare abstraction levels
  map <attr> <child> <parent>        child value rolls up to parent value
  select ... ;                       S-cuboid query (may span lines)
  explain select ... ;               optimizer plan only (no execution)
  explain analyze select ... ;       execute and show the span tree
                                     (--trace-out=<file> dumps Chrome JSON)
  append <sym> [attr level] | prepend <sym> [attr level]
  detail | dehead                    DE-TAIL / DE-HEAD
  rollup <sym> | drilldown <sym>     P-ROLL-UP / P-DRILL-DOWN
  slice <sym> <label>                slice a pattern dimension
  top [n]                            re-show the current cuboid
  export <path.csv>                  write the current cuboid as CSV
  parents | children                 S-cube lattice neighbors
  serve start [threads [depth]]      start the concurrent query service
  serve stop | serve status          stop / inspect the service
  metrics [--prometheus]             service counters and latencies
  strategy cb|ii|auto                construction strategy
  shards <n> [column]                scatter-gather shard count
                                     (rebuilds the engine; column picks
                                     the table's shard-by attribute)
  ingest <v1,v2,...>[;<row2>...]     append event rows through the
                                     epoch-gated write path (values by
                                     schema order; ';' separates rows)
  evict <attr> <cutoff>              retention: drop rows below cutoff
  stats                              engine counters
  help | quit)";

std::pair<std::string, std::string> SplitCommand(const std::string& line) {
  size_t sp = line.find(' ');
  if (sp == std::string::npos) return {line, ""};
  size_t rest = line.find_first_not_of(' ', sp);
  return {line.substr(0, sp),
          rest == std::string::npos ? "" : line.substr(rest)};
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> Words(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string w;
  while (is >> w) out.push_back(w);
  return out;
}

}  // namespace

ShellSession::ShellSession(std::ostream& out)
    : out_(out), hierarchies_(std::make_shared<HierarchyRegistry>()) {}

ShellSession::~ShellSession() = default;

void ShellSession::Run(std::istream& in) {
  std::string line;
  while (!done_ && std::getline(in, line)) {
    if (!ExecLine(line)) break;
  }
}

bool ShellSession::ExecLine(const std::string& line) {
  Status st = Dispatch(line);
  if (!st.ok()) out_ << "error: " << st.ToString() << "\n";
  return !done_;
}

Status ShellSession::Dispatch(const std::string& raw) {
  std::string line = Trim(raw);
  if (!pending_query_.empty()) {
    pending_query_ += " " + line;
    if (!line.empty() && line.back() == ';') {
      std::string q = pending_query_.substr(0, pending_query_.size() - 1);
      pending_query_.clear();
      return RunQuery(q);
    }
    return Status::OK();
  }
  if (line.empty() || line[0] == '#') return Status::OK();

  auto [cmd, args] = SplitCommand(line);
  std::string c = ToLower(cmd);
  if (c == "quit" || c == "exit") {
    done_ = true;
    return Status::OK();
  }
  if (c == "help") {
    out_ << kHelp << "\n";
    return Status::OK();
  }
  if (c == "select" || c == "explain") {
    if (!line.empty() && line.back() == ';') {
      return RunQuery(line.substr(0, line.size() - 1));
    }
    pending_query_ = line;
    return Status::OK();
  }
  if (c == "schema") return CmdSchema(args);
  if (c == "load") return CmdLoad(args);
  if (c == "save") return CmdSave(args);
  if (c == "generate") return CmdGenerate(args);
  if (c == "hierarchy") return CmdHierarchy(args);
  if (c == "map") return CmdMap(args);
  if (c == "strategy") return CmdStrategy(args);
  if (c == "shards") return CmdShards(args);
  if (c == "serve") return CmdServe(args);
  if (c == "ingest") return CmdIngest(args);
  if (c == "evict") return CmdEvict(args);
  if (c == "metrics") {
    if (service_ == nullptr) {
      return Status::InvalidArgument(
          "no service running; start one with 'serve start'");
    }
    std::string fmt = Trim(args);
    if (!fmt.empty() && fmt != "--prometheus") {
      return Status::InvalidArgument("metrics [--prometheus]");
    }
    service_->RefreshResourceMetrics();
    out_ << (fmt == "--prometheus" ? service_->metrics().ToPrometheus()
                                   : service_->metrics().ToString());
    return Status::OK();
  }
  if (c == "stats") {
    SOLAP_RETURN_NOT_OK(RequireEngine());
    out_ << engine_->StatsSnapshot().ToString()
         << " index_cache_bytes=" << engine_->IndexCacheBytes() << "\n";
    return Status::OK();
  }
  if (c == "top" || c == "show") {
    if (!args.empty()) show_limit_ = std::strtoul(args.c_str(), nullptr, 10);
    if (current_cuboid_ == nullptr) {
      return Status::InvalidArgument("no cuboid yet; run a query first");
    }
    out_ << current_cuboid_->ToTable(show_limit_);
    return Status::OK();
  }
  if (c == "export") {
    if (current_cuboid_ == nullptr) {
      return Status::InvalidArgument("no cuboid yet; run a query first");
    }
    std::string path = Trim(args);
    if (path.empty()) return Status::InvalidArgument("export <path.csv>");
    std::ofstream f(path);
    if (!f) return Status::NotFound("cannot create '" + path + "'");
    f << current_cuboid_->ToCsv();
    out_ << "exported " << current_cuboid_->num_cells() << " cells to "
         << path << "\n";
    return Status::OK();
  }
  if (c == "parents") return ShowLattice(true);
  if (c == "children") return ShowLattice(false);
  if (c == "append" || c == "prepend" || c == "detail" || c == "dehead" ||
      c == "rollup" || c == "drilldown" || c == "slice") {
    return RunOp(c, args);
  }
  return Status::InvalidArgument("unknown command '" + cmd +
                                 "' (try 'help')");
}

Status ShellSession::CmdSchema(const std::string& args) {
  std::vector<Field> fields;
  for (const std::string& part : Split(args, ',')) {
    std::vector<std::string> bits = Split(Trim(part), ':');
    if (bits.size() < 2) {
      return Status::InvalidArgument("schema entries are name:type[:measure]");
    }
    Field f;
    f.name = bits[0];
    std::string type = ToLower(bits[1]);
    if (type == "string") {
      f.type = ValueType::kString;
    } else if (type == "int64") {
      f.type = ValueType::kInt64;
    } else if (type == "double") {
      f.type = ValueType::kDouble;
    } else if (type == "timestamp") {
      f.type = ValueType::kTimestamp;
    } else {
      return Status::InvalidArgument("unknown type '" + bits[1] + "'");
    }
    f.role = bits.size() > 2 && ToLower(bits[2]) == "measure"
                 ? FieldRole::kMeasure
                 : FieldRole::kDimension;
    fields.push_back(std::move(f));
  }
  schema_ = Schema(fields);
  out_ << "schema with " << fields.size() << " attributes\n";
  return Status::OK();
}

Status ShellSession::CmdLoad(const std::string& args) {
  auto [what, path] = SplitCommand(args);
  if (ToLower(what) == "csv") {
    if (!schema_.has_value()) {
      return Status::InvalidArgument("declare a schema before loading CSV");
    }
    SOLAP_ASSIGN_OR_RETURN(table_, LoadCsvFile(*schema_, Trim(path)));
  } else if (ToLower(what) == "snapshot") {
    SOLAP_ASSIGN_OR_RETURN(table_, LoadTable(Trim(path), RetryPolicy{}));
    schema_ = table_->schema();
  } else {
    return Status::InvalidArgument("load csv <path> | load snapshot <path>");
  }
  raw_groups_.reset();
  http_.reset();     // listener routes into service_
  service_.reset();  // pool threads reference the old engine
  ResetEngine();
  out_ << "loaded " << table_->num_rows() << " events\n";
  return Status::OK();
}

Status ShellSession::CmdSave(const std::string& args) {
  auto [what, path] = SplitCommand(args);
  if (ToLower(what) != "snapshot" || table_ == nullptr) {
    return Status::InvalidArgument(
        "save snapshot <path> (requires a loaded table)");
  }
  SOLAP_RETURN_NOT_OK(SaveTable(*table_, Trim(path), RetryPolicy{}));
  out_ << "saved " << table_->num_rows() << " events\n";
  return Status::OK();
}

Status ShellSession::CmdGenerate(const std::string& args) {
  std::vector<std::string> w = Words(args);
  if (w.empty()) {
    return Status::InvalidArgument(
        "generate transit|clickstream|synthetic [n]");
  }
  size_t n = w.size() > 1 ? std::strtoul(w[1].c_str(), nullptr, 10) : 0;
  std::string kind = ToLower(w[0]);
  http_.reset();     // listener routes into service_
  service_.reset();  // pool threads reference the old engine
  if (kind == "transit") {
    TransitParams p;
    if (n) p.num_passengers = n;
    TransitData data = GenerateTransit(p);
    table_ = data.table;
    hierarchies_ = data.hierarchies;
    raw_groups_.reset();
    ResetEngine();
  } else if (kind == "clickstream") {
    ClickstreamParams p;
    if (n) p.num_sessions = n;
    ClickstreamData data = GenerateClickstream(p);
    table_ = data.table;
    hierarchies_ = data.hierarchies;
    raw_groups_.reset();
    ResetEngine();
  } else if (kind == "synthetic") {
    SyntheticParams p;
    if (n) p.num_sequences = n;
    SyntheticData data = GenerateSynthetic(p);
    raw_groups_ = data.groups;
    hierarchies_ = data.hierarchies;
    table_.reset();
    ResetEngine();
  } else {
    return Status::InvalidArgument("unknown workload '" + w[0] + "'");
  }
  out_ << "generated " << kind << " workload"
       << (table_ ? " (" + std::to_string(table_->num_rows()) + " events)"
                  : "")
       << "\n";
  return Status::OK();
}

Status ShellSession::CmdHierarchy(const std::string& args) {
  std::vector<std::string> w = Words(args);
  if (w.size() != 2) {
    return Status::InvalidArgument("hierarchy <attr> <lvl0,lvl1,...>");
  }
  std::vector<std::string> levels = Split(w[1], ',');
  if (levels.size() < 2) {
    return Status::InvalidArgument("a hierarchy needs at least two levels");
  }
  hierarchies_->Register(w[0],
                         std::make_shared<ConceptHierarchy>(levels));
  out_ << "hierarchy on '" << w[0] << "' with " << levels.size()
       << " levels\n";
  return Status::OK();
}

Status ShellSession::CmdMap(const std::string& args) {
  std::vector<std::string> w = Words(args);
  if (w.size() != 3) return Status::InvalidArgument("map <attr> <child> <parent>");
  ConceptHierarchy* h = hierarchies_->Find(w[0]);
  if (h == nullptr) {
    return Status::NotFound("no hierarchy on '" + w[0] +
                            "'; declare it first");
  }
  // The child may live at any non-top level; find the level whose parent
  // mapping should hold it. Default: level 0.
  return h->SetParent(0, w[1], w[2]);
}

Status ShellSession::CmdStrategy(const std::string& args) {
  std::string s = ToLower(Trim(args));
  if (s == "cb") {
    strategy_ = ExecStrategy::kCounterBased;
  } else if (s == "ii") {
    strategy_ = ExecStrategy::kInvertedIndex;
  } else if (s == "auto") {
    strategy_ = ExecStrategy::kAuto;
  } else {
    return Status::InvalidArgument("strategy cb|ii|auto");
  }
  out_ << "strategy = " << s << "\n";
  return Status::OK();
}

Status ShellSession::CmdShards(const std::string& args) {
  std::vector<std::string> w = Words(args);
  if (w.empty() || w.size() > 2) {
    return Status::InvalidArgument("shards <n> [column]");
  }
  size_t n = std::strtoul(w[0].c_str(), nullptr, 10);
  if (n == 0) return Status::InvalidArgument("shard count must be >= 1");
  shards_ = n;
  shard_by_ = w.size() > 1 ? w[1] : "";
  if (engine_ == nullptr) {
    out_ << "shards = " << shards_ << " (applies at the next load/generate)\n";
    return Status::OK();
  }
  http_.reset();     // listener routes into service_
  service_.reset();  // pool threads reference the old engine
  ResetEngine();
  current_cuboid_.reset();
  out_ << "shards = " << engine_->num_shards();
  if (!shard_by_.empty()) out_ << " (by " << shard_by_ << ")";
  out_ << "\n";
  return Status::OK();
}

Status ShellSession::CmdIngest(const std::string& args) {
  SOLAP_RETURN_NOT_OK(RequireEngine());
  if (table_ == nullptr) {
    return Status::InvalidArgument(
        "ingest applies to table-backed engines (load or generate first)");
  }
  const Schema& schema = table_->schema();
  std::vector<std::vector<Value>> rows;
  for (const std::string& row_text : Split(Trim(args), ';')) {
    std::vector<std::string> parts = Split(Trim(row_text), ',');
    if (parts.size() != schema.num_fields()) {
      return Status::InvalidArgument(
          "row has " + std::to_string(parts.size()) + " values; schema has " +
          std::to_string(schema.num_fields()));
    }
    std::vector<Value> row;
    row.reserve(parts.size());
    for (size_t c = 0; c < parts.size(); ++c) {
      const std::string text = Trim(parts[c]);
      switch (schema.field(static_cast<int>(c)).type) {
        case ValueType::kString:
          row.push_back(Value::String(text));
          break;
        case ValueType::kInt64:
        case ValueType::kTimestamp: {
          char* end = nullptr;
          const long long v = std::strtoll(text.c_str(), &end, 10);
          if (end == text.c_str() || *end != '\0') {
            return Status::InvalidArgument("bad int64 '" + text + "' for '" +
                                           schema.field(static_cast<int>(c))
                                               .name +
                                           "'");
          }
          row.push_back(Value::Int64(v));
          break;
        }
        case ValueType::kDouble: {
          char* end = nullptr;
          const double v = std::strtod(text.c_str(), &end);
          if (end == text.c_str() || *end != '\0') {
            return Status::InvalidArgument("bad double '" + text + "' for '" +
                                           schema.field(static_cast<int>(c))
                                               .name +
                                           "'");
          }
          row.push_back(Value::Double(v));
          break;
        }
        case ValueType::kNull:
          row.push_back(Value::Null());
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  SOLAP_RETURN_NOT_OK(engine_->IngestRows(rows));
  out_ << "ingested " << rows.size() << " events (epoch "
       << engine_->epoch() << ")\n";
  return Status::OK();
}

Status ShellSession::CmdEvict(const std::string& args) {
  SOLAP_RETURN_NOT_OK(RequireEngine());
  std::vector<std::string> w = Words(args);
  if (w.size() != 2) return Status::InvalidArgument("evict <attr> <cutoff>");
  char* end = nullptr;
  const long long cutoff = std::strtoll(w[1].c_str(), &end, 10);
  if (end == w[1].c_str() || *end != '\0') {
    return Status::InvalidArgument("bad cutoff '" + w[1] + "'");
  }
  SOLAP_RETURN_NOT_OK(engine_->EvictBefore(w[0], cutoff));
  out_ << "retention: " << w[0] << " >= " << cutoff << " (epoch "
       << engine_->epoch() << ")\n";
  return Status::OK();
}

void ShellSession::ResetEngine() {
  EngineOptions opts;
  opts.shards = shards_;
  opts.shard_by = shard_by_;
  if (table_ != nullptr) {
    engine_ = std::make_unique<ShardedEngine>(table_.get(),
                                              hierarchies_.get(), opts);
  } else if (raw_groups_ != nullptr) {
    engine_ =
        std::make_unique<ShardedEngine>(raw_groups_, hierarchies_.get(), opts);
  } else {
    engine_.reset();
  }
}

Status ShellSession::CmdServe(const std::string& args) {
  std::vector<std::string> w = Words(args);
  std::string sub = w.empty() ? "" : ToLower(w[0]);
  constexpr const char kUsage[] =
      "serve start [threads [depth]] [--port <p>] | stop | status";
  if (sub == "start") {
    SOLAP_RETURN_NOT_OK(RequireEngine());
    if (service_ != nullptr) {
      return Status::InvalidArgument(
          "service already running; 'serve stop' first");
    }
    // `--port <p>` / `--port=<p>` adds an HTTP listener (0 = ephemeral);
    // positional words remain [threads [depth]].
    bool with_listener = false;
    long port = 0;
    std::vector<std::string> positional;
    for (size_t i = 1; i < w.size(); ++i) {
      if (w[i] == "--port" || w[i].rfind("--port=", 0) == 0) {
        std::string value;
        if (w[i] == "--port") {
          if (i + 1 >= w.size()) return Status::InvalidArgument(kUsage);
          value = w[++i];
        } else {
          value = w[i].substr(sizeof("--port=") - 1);
        }
        char* end = nullptr;
        port = std::strtol(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0' || port < 0 ||
            port > 65535) {
          return Status::InvalidArgument("bad port '" + value + "'");
        }
        with_listener = true;
      } else {
        positional.push_back(w[i]);
      }
    }
    ServiceOptions opts;
    if (positional.size() > 0) {
      opts.num_threads = std::strtoul(positional[0].c_str(), nullptr, 10);
      if (opts.num_threads == 0) return Status::InvalidArgument(kUsage);
    }
    if (positional.size() > 1) {
      opts.max_queue_depth =
          std::strtoul(positional[1].c_str(), nullptr, 10);
    }
    service_ = std::make_unique<QueryService>(engine_.get(), opts);
    out_ << "service started: " << service_->num_threads()
         << " threads, queue depth " << opts.max_queue_depth << "\n";
    if (with_listener) {
      net::HttpServerOptions hopts;
      hopts.port = static_cast<uint16_t>(port);
      hopts.num_workers = opts.num_threads;
      QueryService* service = service_.get();
      auto server = std::make_unique<net::HttpServer>(
          net::BuildSolapRouter(service), hopts, &service->metrics(),
          /*drain_hook=*/[service] { service->BeginDrain(); });
      Status started = server->Start();
      if (!started.ok()) {
        service_.reset();
        return started;
      }
      http_ = std::move(server);
      out_ << "listening on " << hopts.bind_address << ":" << http_->port()
           << " (POST /query, GET /metrics, GET /healthz)\n";
    }
    return Status::OK();
  }
  if (sub == "stop") {
    if (service_ == nullptr) {
      return Status::InvalidArgument("no service running");
    }
    if (http_ != nullptr) {
      // Orderly drain: stop accepting, let in-flight queries finish, then
      // tear the listener down before the service it routes into.
      http_->Drain();
      service_->WaitIdle(std::chrono::seconds(5));
      http_->Stop();
      http_.reset();
      out_ << "listener stopped\n";
    }
    service_.reset();
    out_ << "service stopped\n";
    return Status::OK();
  }
  if (sub == "status") {
    if (service_ == nullptr) {
      out_ << "service: not running\n";
    } else {
      out_ << "service: running, " << service_->num_threads()
           << " threads, " << service_->PendingQueries() << " pending, "
           << service_->sessions().NumSessions() << " sessions\n";
      if (http_ != nullptr) {
        out_ << "listener: port " << http_->port() << ", "
             << http_->active_connections() << " active connections"
             << (http_->draining() ? ", draining" : "") << "\n";
      }
    }
    return Status::OK();
  }
  return Status::InvalidArgument(kUsage);
}

Status ShellSession::RequireEngine() const {
  if (engine_ == nullptr) {
    return Status::InvalidArgument(
        "no data yet: load csv/snapshot or generate a workload");
  }
  return Status::OK();
}

Status ShellSession::RunQuery(const std::string& text) {
  SOLAP_RETURN_NOT_OK(RequireEngine());
  // `--trace-out=<file>` is a shell option of EXPLAIN ANALYZE; strip it
  // before the text reaches the parser.
  std::string query;
  std::string trace_out;
  {
    std::istringstream is(text);
    std::string w;
    while (is >> w) {
      constexpr const char kTraceOut[] = "--trace-out=";
      if (w.rfind(kTraceOut, 0) == 0) {
        trace_out = w.substr(sizeof(kTraceOut) - 1);
      } else {
        if (!query.empty()) query += ' ';
        query += w;
      }
    }
  }
  // Constructed before parsing so the context's epoch precedes the parse
  // span (unused unless the statement is EXPLAIN ANALYZE; construction is
  // one clock read).
  TraceContext trace;
  const auto parse_start = std::chrono::steady_clock::now();
  SOLAP_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(query));
  const auto parse_end = std::chrono::steady_clock::now();
  if (!trace_out.empty() && stmt.explain != ExplainMode::kAnalyze) {
    return Status::InvalidArgument("--trace-out requires EXPLAIN ANALYZE");
  }
  if (stmt.explain == ExplainMode::kPlan) {
    return ExplainPlan(stmt.spec);
  }
  current_spec_ = std::move(stmt.spec);
  if (stmt.explain == ExplainMode::kNone) return ExecuteCurrent();
  trace.AddTimedSpan("parse", parse_start, parse_end, -1);
  return ExecuteAnalyze(&trace, trace_out);
}

Status ShellSession::ExplainPlan(const CuboidSpec& spec) {
  out_ << "EXPLAIN\n";
  if (spec.is_regex()) {
    out_ << "  strategy: counter-based (regex templates always scan)\n";
    return Status::OK();
  }
  // The optimizer models the monolithic engine (with shards == 1 the only
  // executor); scattered execution shows up in EXPLAIN ANALYZE's span tree.
  StrategyOptimizer optimizer(engine_->Monolith());
  SOLAP_ASSIGN_OR_RETURN(StrategyChoice choice, optimizer.Choose(spec));
  const bool forced = strategy_ != ExecStrategy::kAuto;
  const ExecStrategy effective = forced ? strategy_ : choice.strategy;
  out_ << "  strategy: " << StrategyName(effective);
  if (forced) {
    out_ << " (forced by 'strategy'; optimizer prefers "
         << StrategyName(choice.strategy) << ")";
  } else {
    out_ << " (auto)";
  }
  out_ << "\n  reason: " << choice.reason << "\n"
       << "  cost estimate (sequences touched): cb=" << choice.cb_cost
       << " ii=" << choice.ii_cost << "\n";
  for (const GroupPlan& g : choice.groups) {
    out_ << "  group " << g.group_index << ": " << g.num_sequences
         << " sequences, cb=" << g.cb_cost << " ii=" << g.ii_cost
         << ", ii source: " << g.ii_source;
    if (!g.reused_index.empty()) out_ << ", reuses " << g.reused_index;
    out_ << "\n";
  }
  return Status::OK();
}

Status ShellSession::ExecuteAnalyze(TraceContext* trace,
                                    const std::string& trace_out) {
  if (service_ != nullptr) {
    SubmitOptions opts;
    opts.strategy = strategy_;
    opts.trace = trace;
    QueryResponse resp = service_->Run(*current_spec_, opts);
    SOLAP_RETURN_NOT_OK(resp.status);
    current_cuboid_ = resp.cuboid;
  } else {
    TraceSpan root(trace, "query");
    root.Note("strategy", StrategyName(strategy_));
    ExecControl control;
    control.trace = trace;
    SOLAP_ASSIGN_OR_RETURN(
        current_cuboid_, engine_->Execute(*current_spec_, strategy_, control));
    root.End();
  }
  char total[32];
  std::snprintf(total, sizeof(total), "%.3f", trace->TotalMs());
  out_ << "EXPLAIN ANALYZE  total " << total << " ms, "
       << current_cuboid_->num_cells() << " cells\n"
       << trace->ToString();
  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    if (!f) return Status::NotFound("cannot create '" + trace_out + "'");
    f << trace->ToChromeJson();
    out_ << "chrome trace written to " << trace_out << "\n";
  }
  return Status::OK();
}

Status ShellSession::ExecuteCurrent() {
  SOLAP_RETURN_NOT_OK(RequireEngine());
  Timer t;
  if (service_ != nullptr) {
    // Through the service: admission control, deadlines and metrics apply
    // to interactive queries exactly as they would to remote clients.
    SubmitOptions opts;
    opts.strategy = strategy_;
    QueryResponse resp = service_->Run(*current_spec_, opts);
    SOLAP_RETURN_NOT_OK(resp.status);
    current_cuboid_ = resp.cuboid;
  } else {
    SOLAP_ASSIGN_OR_RETURN(current_cuboid_,
                           engine_->Execute(*current_spec_, strategy_));
  }
  out_ << current_cuboid_->num_cells() << " cells in " << t.ElapsedMs()
       << " ms\n"
       << current_cuboid_->ToTable(show_limit_);
  return Status::OK();
}

Status ShellSession::RunOp(const std::string& op, const std::string& args) {
  if (!current_spec_.has_value()) {
    return Status::InvalidArgument("no current cuboid; run a query first");
  }
  std::vector<std::string> w = Words(args);
  Result<CuboidSpec> next = Status::Internal("unreached");
  if (op == "append" || op == "prepend") {
    if (w.empty()) return Status::InvalidArgument(op + " <sym> [attr level]");
    LevelRef ref;
    if (w.size() >= 3) ref = {w[1], w[2]};
    next = op == "append" ? ops::Append(*current_spec_, w[0], ref)
                          : ops::Prepend(*current_spec_, w[0], ref);
  } else if (op == "detail") {
    next = ops::DeTail(*current_spec_);
  } else if (op == "dehead") {
    next = ops::DeHead(*current_spec_);
  } else if (op == "rollup") {
    if (w.empty()) return Status::InvalidArgument("rollup <sym>");
    next = ops::PRollUp(*current_spec_, w[0], *hierarchies_);
  } else if (op == "drilldown") {
    if (w.empty()) return Status::InvalidArgument("drilldown <sym>");
    next = ops::PDrillDown(*current_spec_, w[0], *hierarchies_);
  } else if (op == "slice") {
    if (w.size() < 2) return Status::InvalidArgument("slice <sym> <label>");
    next = ops::SlicePattern(*current_spec_, w[0], {w[1]});
  }
  SOLAP_RETURN_NOT_OK(next.status());
  current_spec_ = *std::move(next);
  return ExecuteCurrent();
}

Status ShellSession::ShowLattice(bool parents) {
  if (!current_spec_.has_value()) {
    return Status::InvalidArgument("no current cuboid; run a query first");
  }
  SOLAP_ASSIGN_OR_RETURN(std::vector<CuboidSpec> neighbors,
                         parents
                             ? CoarserNeighbors(*current_spec_, *hierarchies_)
                             : FinerNeighbors(*current_spec_, *hierarchies_));
  out_ << (parents ? "parents" : "children") << " in the S-cube lattice:\n";
  for (const CuboidSpec& n : neighbors) {
    out_ << "  ";
    if (n.is_regex()) {
      out_ << "PATTERN \"" << n.regex << "\"";
    } else {
      out_ << PatternKindName(n.kind) << "(" << Join(n.symbols, ", ") << ")";
    }
    for (const PatternDim& d : n.dims) {
      out_ << " " << d.symbol << "@" << d.ref.level;
    }
    out_ << " | global:";
    for (const LevelRef& g : n.seq.group_by) out_ << " " << g.ToString();
    out_ << "\n";
  }
  return Status::OK();
}

}  // namespace solap
