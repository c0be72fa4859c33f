// The shard-server binary: serves ONE shard's slice of a table snapshot
// over HTTP (net/shard_routes.h), the process the coordinator's
// RemoteShardClient talks to and the supervisor restarts.
//
//   ./build/tools/shard_main --table t.solap --shard 0 --num-shards 2
//       [--hier h.json] [--shard-by attr] [--port 0] [--port-file p.txt]
//       [--memory-budget-bytes N]
//
// The slice is computed here with the SAME placement function the
// coordinator uses (engine/shard_partition.h over the snapshot's
// dictionary codes), so shard i of n holds exactly the rows the coordinator's
// in-process shard i would — the precondition for bit-identical answers.
//
// On successful start the bound port is printed as "PORT=<p>" and, when
// --port-file is given, written (tmp+rename) to that path — the handshake
// the supervisor and tests use with ephemeral ports. SIGTERM/SIGINT stop
// the server cleanly; any load/bind failure exits 1 with the error on
// stderr.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "solap/engine/engine.h"
#include "solap/engine/shard_partition.h"
#include "solap/net/server.h"
#include "solap/net/shard_routes.h"
#include "solap/storage/hierarchy_io.h"
#include "solap/storage/io.h"

namespace {

struct Flags {
  std::string table_path;
  std::string hier_path;
  std::string shard_by;
  std::string port_file;
  size_t shard = 0;
  size_t num_shards = 0;
  uint16_t port = 0;
  size_t memory_budget_bytes = 0;
  bool shard_set = false;
};

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --table <snapshot> --shard <i> --num-shards <n>"
               " [--hier <path>] [--shard-by <attr>] [--port <p>]"
               " [--port-file <path>] [--memory-budget-bytes <n>]\n";
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  auto need = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " needs a value\n";
      return nullptr;
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--table") == 0) {
      if ((v = need(i++)) == nullptr) return false;
      f->table_path = v;
    } else if (std::strcmp(a, "--hier") == 0) {
      if ((v = need(i++)) == nullptr) return false;
      f->hier_path = v;
    } else if (std::strcmp(a, "--shard-by") == 0) {
      if ((v = need(i++)) == nullptr) return false;
      f->shard_by = v;
    } else if (std::strcmp(a, "--port-file") == 0) {
      if ((v = need(i++)) == nullptr) return false;
      f->port_file = v;
    } else if (std::strcmp(a, "--shard") == 0) {
      if ((v = need(i++)) == nullptr) return false;
      f->shard = static_cast<size_t>(std::strtoull(v, nullptr, 10));
      f->shard_set = true;
    } else if (std::strcmp(a, "--num-shards") == 0) {
      if ((v = need(i++)) == nullptr) return false;
      f->num_shards = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(a, "--port") == 0) {
      if ((v = need(i++)) == nullptr) return false;
      f->port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(a, "--memory-budget-bytes") == 0) {
      if ((v = need(i++)) == nullptr) return false;
      f->memory_budget_bytes =
          static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else {
      std::cerr << "unknown flag '" << a << "'\n";
      return false;
    }
  }
  if (f->table_path.empty() || !f->shard_set || f->num_shards == 0 ||
      f->shard >= f->num_shards) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage(argv[0]);
    return 1;
  }

  // Block the shutdown signals BEFORE any thread spawns, so every server
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  auto table = solap::LoadTable(flags.table_path);
  if (!table.ok()) {
    std::cerr << "shard_main: load table: " << table.status().ToString()
              << "\n";
    return 1;
  }

  std::shared_ptr<solap::HierarchyRegistry> hierarchies;
  if (!flags.hier_path.empty()) {
    auto loaded = solap::LoadHierarchies(flags.hier_path);
    if (!loaded.ok()) {
      std::cerr << "shard_main: load hierarchies: "
                << loaded.status().ToString() << "\n";
      return 1;
    }
    hierarchies = *std::move(loaded);
  } else {
    hierarchies = std::make_shared<solap::HierarchyRegistry>();
  }

  // Partition with the coordinator's placement function and keep slice i.
  // The snapshot carries the source table's dictionaries verbatim, so
  // codes — and therefore ShardOfCode — agree with the coordinator's
  // in-process partitioning.
  const int shard_col =
      solap::ResolveShardColumn(**table, flags.shard_by);
  if (shard_col < 0) {
    std::cerr << "shard_main: no usable shard-by column\n";
    return 1;
  }
  const size_t n = flags.num_shards;
  const solap::EventTable* src = table->get();
  auto slices = src->PartitionRows(n, [src, shard_col, n](solap::RowId r) {
    return solap::ShardOfCode(src->CodeAt(r, shard_col), n);
  });
  std::unique_ptr<solap::EventTable> slice = std::move(slices[flags.shard]);

  // Mirror the coordinator's per-shard executor options (sharded_engine.cc
  // BuildShards): an even split of the cuboid repository and of the memory
  // budget.
  solap::EngineOptions opts;
  opts.repository_capacity_bytes = opts.repository_capacity_bytes / n;
  opts.memory_budget_bytes = flags.memory_budget_bytes / n;
  solap::SOlapEngine engine(slice.get(), hierarchies.get(), opts);

  solap::net::HttpServerOptions server_opts;
  server_opts.port = flags.port;
  server_opts.num_workers = 2;
  solap::net::HttpServer server(solap::net::BuildShardRouter(&engine),
                                server_opts);
  solap::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "shard_main: start: " << started.ToString() << "\n";
    return 1;
  }

  if (!flags.port_file.empty()) {
    // tmp+rename so a polling reader never sees a half-written file.
    const std::string tmp = flags.port_file + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << server.port() << "\n";
      if (!out) {
        std::cerr << "shard_main: cannot write " << tmp << "\n";
        server.Stop();
        return 1;
      }
    }
    if (std::rename(tmp.c_str(), flags.port_file.c_str()) != 0) {
      std::cerr << "shard_main: cannot rename port file\n";
      server.Stop();
      return 1;
    }
  }
  std::cout << "PORT=" << server.port() << "\n" << std::flush;

  int sig = 0;
  sigwait(&sigs, &sig);
  server.Stop();
  return 0;
}
