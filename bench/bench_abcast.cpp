// E4 — the paper's Section 7 experiment: the Atomic Broadcast protocol
// expressed in the framework, "variants of the concurrency control with a
// different grain of concurrent execution".
//
// N sites on the simulated network; a burst of abcasts is submitted and we
// measure time-to-total-order (all sites delivered everything) plus mean
// per-message delivery latency, for each per-site controller:
//   serial        one computation at a time per site (Appia-like)
//   VCAbasic      per-declaration versioning (the paper's default)
//   VCAbound      generous bounds (same declarations, windowed gates)
//   unsync+locks  Cactus-style manual synchronisation baseline
#include <cstdio>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "diag/watchdog.hpp"
#include "gc/group_node.hpp"

namespace samoa::bench {
namespace {

using namespace samoa::gc;
using net::LinkOptions;
using net::SimNetwork;

/// Time until every site delivered every message, in ns; -1 if the run
/// did not converge.
double run_abcast(CCPolicy policy, bool manual_locks, int sites, int messages,
                  std::chrono::microseconds link_latency) {
  GcOptions opts;
  opts.policy = policy;
  opts.manual_locks = manual_locks;
  // Calm the periodic machinery: on the single-core CI host the default
  // (aggressive) timers flood the run with heartbeats and spurious
  // consensus retries that measure the scheduler, not the controllers.
  opts.heartbeat_interval = std::chrono::microseconds(50'000);
  opts.fd_timeout = std::chrono::microseconds(500'000);
  opts.retransmit_interval = std::chrono::microseconds(10'000);
  opts.retransmit_timeout = std::chrono::microseconds(20'000);
  opts.cs_retry_interval = std::chrono::microseconds(200'000);
  opts.cs_retry_timeout = std::chrono::microseconds(400'000);
  SimNetwork net(LinkOptions{.base_latency = link_latency}, /*seed=*/7);
  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < sites; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  std::vector<SiteId> members;
  for (auto& n : nodes) members.push_back(n->id());
  for (auto& n : nodes) n->start(View(1, members));

  const auto start = Clock::now();
  for (int m = 0; m < messages; ++m) {
    nodes[m % sites]->abcast("msg" + std::to_string(m));
  }
  const auto deadline = start + std::chrono::seconds(30);
  bool converged = false;
  while (Clock::now() < deadline) {
    converged = true;
    for (auto& n : nodes) {
      if (n->sink().adelivered().size() != static_cast<std::size_t>(messages)) {
        converged = false;
        break;
      }
    }
    if (converged) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double makespan_ns = converged ? ns_since(start) : -1;
  for (auto& n : nodes) n->stop_timers();
  return makespan_ns;
}

std::string cell(double makespan_ns, int messages) {
  if (makespan_ns < 0) return "DNF";
  const double per_msg = makespan_ns / messages;
  return format_duration_ns(makespan_ns) + " (" + format_duration_ns(per_msg) + "/msg)";
}

}  // namespace
}  // namespace samoa::bench

int main() {
  samoa::diag::install_env_watchdog("bench_abcast");
  using namespace samoa;
  using namespace samoa::bench;

  constexpr int kMessages = 20;
  constexpr auto kLatency = std::chrono::microseconds(200);
  std::printf(
      "E4: Atomic Broadcast on the simulated network (%d messages, %lldus links),\n"
      "per-site concurrency control varied (paper Section 7).\n",
      kMessages, static_cast<long long>(kLatency.count()));

  Table table({"sites", "serial", "VCAbasic", "VCAbound", "unsync+manual-locks"});
  for (int sites : {3, 5, 7}) {
    const auto serial = run_abcast(CCPolicy::kSerial, false, sites, kMessages, kLatency);
    const auto basic = run_abcast(CCPolicy::kVCABasic, false, sites, kMessages, kLatency);
    const auto bound = run_abcast(CCPolicy::kVCABound, false, sites, kMessages, kLatency);
    const auto unsync = run_abcast(CCPolicy::kUnsync, true, sites, kMessages, kLatency);
    table.add_row({std::to_string(sites), cell(serial, kMessages), cell(basic, kMessages),
                   cell(bound, kMessages), cell(unsync, kMessages)});
  }
  table.print("Time to total order (all sites delivered every message)");

  std::printf(
      "\nExpected shape: all controllers converge, and the versioned\n"
      "controllers track the hand-locked baseline within a small factor —\n"
      "the paper's Section 7 claim that the concurrency-control overhead is\n"
      "relatively low. Serial is competitive on this workload because the\n"
      "abcast data path is inherently sequential per site; its cost appears\n"
      "when computations could overlap (bench_scaling, bench_bound,\n"
      "bench_route quantify exactly that).\n");
  return 0;
}
