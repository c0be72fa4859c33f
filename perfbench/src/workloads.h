// The benchmark's three workloads (README.md "Workloads"). Each one builds
// its data, engine and service from the seed, then drives a fixed amount
// of work through the router's Dispatch, in-process.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "harness.h"
#include "solap/common/status.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  int seconds = 10;
  /// A pass stops issuing new work after this long, so that a much slower
  /// program still ends the run in time; the report then says so.
  double pass_cap_s = 30;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Frees the data, engine and service of the previous set-up, if any.
  virtual void Teardown() = 0;

  /// Builds data, engine and service afresh, including the warm-up
  /// formation. This is what setup_s times.
  virtual solap::Status Setup() = 0;

  /// One measured pass of the workload's fixed work. `traced` adds
  /// X-Solap-Trace: 1 to every request and times ParseStatement/JsonParse
  /// on the request texts beside them.
  virtual PassResult Run(bool traced) = 0;

  /// Answer checks, run after the pass and outside its clock. Every failed
  /// check is counted into pass->log.failed.
  virtual void Check(PassResult* pass) = 0;

  /// The data the last set-up built, for the report.
  virtual std::string data_note() const = 0;
  /// True when the workload posts /ingest batches.
  virtual bool writes() const { return false; }
};

std::unique_ptr<Workload> MakeExplore(const RunConfig& cfg);
std::unique_ptr<Workload> MakeScan(const RunConfig& cfg);
std::unique_ptr<Workload> MakeIngest(const RunConfig& cfg);

/// Engine counters accumulated between two snapshots.
solap::ScanStats StatsDelta(const solap::ScanStats& after,
                            const solap::ScanStats& before);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
