// The interactive S-OLAP shell — the "User Interface" box of the paper's
// architecture (Fig. 6), as a scriptable command interpreter: load or
// generate an event database, declare concept hierarchies, pose S-cuboid
// queries in the query language, and navigate the S-cube with the six
// S-OLAP operations.
//
// The interpreter is a library class so it can be driven by the CLI
// binary (tools/solap_shell) and by tests alike.
#ifndef SOLAP_TOOLS_SHELL_H_
#define SOLAP_TOOLS_SHELL_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "solap/common/status.h"
#include "solap/engine/engine.h"
#include "solap/engine/sharded_engine.h"
#include "solap/net/server.h"
#include "solap/service/query_service.h"

namespace solap {

/// \brief One interactive session: owned data, engine, and navigation
/// state (the "current cuboid" the S-OLAP operations transform).
///
/// Command summary (see `help` for the full text):
///   schema <name:type[:measure],...>        declare the event schema
///   load csv <path> | load snapshot <path>  ingest events
///   save snapshot <path>                    persist the table
///   generate transit|clickstream|synthetic [n]
///   hierarchy <attr> <level0,level1,...>    declare levels
///   map <attr> <child> <parent>             declare a roll-up edge
///   select ... ;                            run a query (multi-line, ';')
///   append/prepend <sym> [attr level] | detail | dehead
///   rollup <sym> | drilldown <sym> | slice <sym> <label> | top [n]
///   parents | children                      S-cube lattice neighbors
///   shards <n> [column]                     scatter-gather shard count
///   ingest <v1,v2,...>[;<row>...]           append rows (epoch-gated)
///   evict <attr> <cutoff>                   retention
///   serve start|stop|status                 concurrent query service
///     serve start [t [d]] --port <p>        + HTTP listener (0=ephemeral)
///   metrics                                 service counters/latencies
///   strategy cb|ii|auto | stats | show [n] | quit
class ShellSession {
 public:
  explicit ShellSession(std::ostream& out);
  ~ShellSession();

  /// Interprets one input line. Errors are printed, never thrown; the
  /// session survives bad input. Returns false once `quit` was seen.
  bool ExecLine(const std::string& line);

  /// Reads `in` line by line until EOF or `quit`.
  void Run(std::istream& in);

  bool done() const { return done_; }

 private:
  Status Dispatch(const std::string& line);
  Status CmdSchema(const std::string& args);
  Status CmdLoad(const std::string& args);
  Status CmdSave(const std::string& args);
  Status CmdGenerate(const std::string& args);
  Status CmdHierarchy(const std::string& args);
  Status CmdMap(const std::string& args);
  Status CmdStrategy(const std::string& args);
  Status CmdShards(const std::string& args);
  Status CmdServe(const std::string& args);
  Status CmdIngest(const std::string& args);
  Status CmdEvict(const std::string& args);
  Status RunQuery(const std::string& text);
  Status RunOp(const std::string& op, const std::string& args);
  Status ShowLattice(bool parents);
  Status RequireEngine() const;
  Status ExecuteCurrent();
  /// EXPLAIN: renders the optimizer's verdict for `spec` without executing.
  Status ExplainPlan(const CuboidSpec& spec);
  /// EXPLAIN ANALYZE: executes current_spec_ recording into `trace`, prints
  /// the span tree, and optionally writes Chrome trace JSON to `trace_out`.
  Status ExecuteAnalyze(TraceContext* trace, const std::string& trace_out);

  std::ostream& out_;
  bool done_ = false;
  std::string pending_query_;  // multi-line SELECT accumulation

  std::optional<Schema> schema_;
  std::shared_ptr<EventTable> table_;
  std::shared_ptr<SequenceGroupSet> raw_groups_;
  std::shared_ptr<HierarchyRegistry> hierarchies_;
  /// Rebuilds engine_ over the loaded table / raw groups with the current
  /// shard settings (no-op while no data is loaded).
  void ResetEngine();

  std::unique_ptr<ShardedEngine> engine_;
  size_t shards_ = 1;       // `shards` command; applied on (re)build
  std::string shard_by_;    // optional shard-by column override
  // Owns pool threads that reference engine_; must be reset before the
  // engine is replaced (CmdLoad / CmdGenerate) or destroyed. The HTTP
  // listener routes into service_, so it must be reset first again.
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<net::HttpServer> http_;
  ExecStrategy strategy_ = ExecStrategy::kAuto;

  std::optional<CuboidSpec> current_spec_;
  std::shared_ptr<const SCuboid> current_cuboid_;
  size_t show_limit_ = 15;
};

}  // namespace solap

#endif  // SOLAP_TOOLS_SHELL_H_
