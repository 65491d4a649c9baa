// The benchmark's three workloads. Each drives real GroupNode fleets
// open-loop and returns every end-to-end and per-layer metric it measured,
// plus the outcome of the correctness checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probes.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;  // abcasts submitted
  std::uint64_t failed = 0;     // of which not delivered at every live site
  Report e2e;
  Report layers;
  std::vector<std::string> problems;  // correctness violations
  std::vector<std::string> notes;     // human-readable detail lines
  std::uint64_t event_hash = 0;       // SimNetwork event hash (virtual workloads)
};

WorkloadResult run_abcast_wall(const RunOptions& ro, TraceLog& trace);
WorkloadResult run_fleet_virtual(const RunOptions& ro, TraceLog& trace);
WorkloadResult run_faults_virtual(const RunOptions& ro, TraceLog& trace);

/// Dispatch by name; false for an unknown workload.
bool run_workload(const RunOptions& ro, TraceLog& trace, WorkloadResult& out);

/// Metrics that repeat exactly for a given (seed, seconds) on the virtual
/// workloads: virtual-time latencies and protocol packet counts.
std::vector<std::string> virtual_metric_names();

}  // namespace perfbench
