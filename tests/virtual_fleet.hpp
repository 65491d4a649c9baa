// Scripted virtual-time chaos harness for the group-communication fleet.
//
// Shared by gc_chaos_test (convergence assertions), determinism_test
// (same-seed replay comparison) and explore_net_replay_test /
// explore_net_sweep_test (explored delivery orders, through the fleet
// cells at the end). The whole scenario —
// traffic bursts, a transient partition, a crash — is scheduled at fixed
// *virtual* times on a harness TimerService driven by the same
// time::VirtualClock as the SimNetwork and every node, so a run burns zero
// real time in sleeps and is a pure function of its seed.
//
// Scheduling discipline: every scripted callback performs exactly ONE
// node API call (one spawned computation). The clock's one loop thread plus
// the runtime's activity pins then serialize all computations, which is
// what makes the message streams — and the seeded RNG draws they trigger —
// replay identically.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "chaos/fault_plan.hpp"
#include "explore/runner.hpp"
#include "explore/strategy.hpp"
#include "gc/group_node.hpp"
#include "time/clock.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "verify/vs_checker.hpp"

namespace samoa::gc::testing {

struct FleetOutcome {
  bool converged = false;   // all survivors complete before the virtual horizon
  long converged_at_us = -1;  // virtual time at which the checker saw it
  // Per surviving site (0 .. kSites-2), in delivery order.
  std::vector<std::vector<AppMessage>> adelivered;
  std::vector<std::vector<std::string>> cdelivered;
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  std::vector<std::uint64_t> gate_waits;  // per site; virtual time runs inline, so zero
  std::vector<std::uint64_t> failed_computations;  // per site, all incarnations; zero
  std::vector<verify::IncarnationTrace> traces;  // all sites, all incarnations
  std::uint64_t event_hash = 0;  // SimNetwork event-stream hash (FNV-1a)
};

/// Version-gate waits per site (current incarnations). Under virtual time
/// every computation runs inline, one at a time, so none can block.
inline std::vector<std::uint64_t> gate_waits_per_site(
    const std::vector<std::unique_ptr<GroupNode>>& nodes) {
  std::vector<std::uint64_t> waits;
  for (const auto& n : nodes) {
    waits.push_back(n->runtime().controller().stats().gate_waits.value());
  }
  return waits;
}

/// Computations that completed with an error, per site, summed over its
/// incarnations. Nobody waits on a packet's or a tick's computation, so a
/// handler that throws (an IsolationError from a declaration that misses
/// a microprotocol the computation reached) shows only here.
inline std::vector<std::uint64_t> failed_computations_per_site(
    const std::vector<std::unique_ptr<GroupNode>>& nodes) {
  std::vector<std::uint64_t> failed;
  for (const auto& n : nodes) failed.push_back(n->total_failed_computations());
  return failed;
}

constexpr int kFleetSites = 5;
constexpr int kFleetAbcasts = 10;
constexpr int kFleetCcasts = 6;

/// `hook`, when set, picks among simultaneously due packets (schedule
/// exploration); it must outlive the call.
inline FleetOutcome run_chaos_fleet(std::uint64_t seed, net::DeliveryHook* hook = nullptr) {
  using namespace std::chrono;

  time::VirtualClock clock;

  GcOptions opts;
  opts.clock = &clock;
  opts.retransmit_interval = microseconds(2000);
  opts.retransmit_timeout = microseconds(3000);
  opts.heartbeat_interval = microseconds(2000);
  opts.fd_timeout = microseconds(20000);
  opts.cs_retry_interval = microseconds(5000);
  opts.cs_retry_timeout = microseconds(8000);

  net::SimNetwork net(net::LinkOptions{.base_latency = microseconds(100),
                                       .jitter = microseconds(200),
                                       .drop_probability = 0.05},
                      seed, &clock);
  net.enable_event_log(/*store_lines=*/false);  // rolling hash only
  net.set_delivery_hook(hook);
  net::TimerService script(&clock);  // harness-owned scenario timers

  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < kFleetSites; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  std::vector<SiteId> members;
  for (auto& n : nodes) members.push_back(n->id());

  FleetOutcome out;
  OneShotEvent done;

  const auto all_survivors_complete = [&] {
    for (int i = 0; i < kFleetSites - 1; ++i) {
      if (nodes[i]->sink().adelivered().size() != kFleetAbcasts) return false;
      if (nodes[i]->sink().cdelivered().size() != kFleetCcasts) return false;
    }
    return true;
  };
  const auto shut_down_fleet = [&] {
    for (auto& n : nodes) n->stop_timers();
    script.cancel_all();  // includes the timer whose callback is running
  };

  {
    // Freeze virtual time while the scenario is armed: nothing fires until
    // every node started and every scripted event is scheduled.
    time::Pin setup(clock);
    for (auto& n : nodes) n->start(View(1, members));

    Rng rng(seed);
    int sent_abcasts = 0;
    // First traffic burst.
    for (int i = 0; i < kFleetAbcasts / 2; ++i) {
      const auto who = rng.next_below(kFleetSites);
      const std::string payload = std::string("a").append(std::to_string(sent_abcasts++));
      script.schedule(microseconds(100 + 200 * i),
                      [&nodes, who, payload] { nodes[who]->abcast(payload); });
    }
    // Transient partition between two random distinct sites, healed ~20ms
    // (virtual) later.
    const auto pa = rng.next_below(kFleetSites);
    const auto pb = (pa + 1 + rng.next_below(kFleetSites - 1)) % kFleetSites;
    script.schedule(microseconds(1500), [&net, &nodes, pa, pb] {
      net.set_partitioned(nodes[pa]->id(), nodes[pb]->id(), true);
    });
    script.schedule(microseconds(22000), [&net, &nodes, pa, pb] {
      net.set_partitioned(nodes[pa]->id(), nodes[pb]->id(), false);
    });
    // Causal stream from one origin, and a second abcast burst, both while
    // the partition is up.
    for (int i = 0; i < kFleetCcasts; ++i) {
      const std::string payload = std::string("c").append(std::to_string(i));
      script.schedule(microseconds(1600 + 150 * i),
                      [&nodes, payload] { nodes[2]->ccast(payload); });
    }
    for (int i = 0; i < kFleetAbcasts / 2; ++i) {
      const auto who = rng.next_below(kFleetSites);
      const std::string payload = std::string("a").append(std::to_string(sent_abcasts++));
      script.schedule(microseconds(2600 + 300 * i),
                      [&nodes, who, payload] { nodes[who]->abcast(payload); });
    }
    // Crash the last site after the heal (never the coordinator of the
    // first consensus instances; a majority survives).
    script.schedule(microseconds(23000), [&nodes] { nodes[kFleetSites - 1]->crash(); });

    // Convergence checker: the shutdown point must itself be a scripted
    // (virtual-time) event, or the collected stats would depend on real
    // teardown timing.
    script.schedule_periodic(microseconds(1000), [&] {
      if (!all_survivors_complete()) return;
      out.converged = true;
      out.converged_at_us = static_cast<long>(
          duration_cast<microseconds>(clock.now().time_since_epoch()).count());
      shut_down_fleet();
      done.set();
    });
    // Horizon failsafe: give up after 2 virtual seconds.
    script.schedule(microseconds(2'000'000), [&] {
      shut_down_fleet();
      done.set();
    });
  }

  done.wait();
  // Quiesce to the fixpoint: drained packets can complete computations that
  // send more packets; loop until a full round adds no network activity.
  std::uint64_t prev = ~std::uint64_t{0};
  for (;;) {
    net.drain();
    for (auto& n : nodes) n->drain();
    const std::uint64_t total = net.stats().sent.value() + net.stats().delivered.value() +
                                net.stats().dropped.value();
    if (total == prev) break;
    prev = total;
  }

  for (int i = 0; i < kFleetSites - 1; ++i) {
    out.adelivered.push_back(nodes[i]->sink().adelivered());
    out.cdelivered.push_back(nodes[i]->sink().cdelivered());
  }
  out.net_sent = net.stats().sent.value();
  out.net_delivered = net.stats().delivered.value();
  out.net_dropped = net.stats().dropped.value();
  out.gate_waits = gate_waits_per_site(nodes);
  out.failed_computations = failed_computations_per_site(nodes);
  for (auto& n : nodes) {
    for (auto& t : n->vs_traces()) out.traces.push_back(std::move(t));
  }
  out.event_hash = net.event_hash();
  return out;
}

// --- Crash/recovery fleet -------------------------------------------------
//
// A second scripted scenario exercising the full restart/rejoin machinery:
// five sites, three traffic bursts, a transient partition, a loss burst,
// and TWO crash → evict → restart → rejoin cycles (site 4 while the
// partition is up, site 3 under the loss burst). All faults are driven by
// a chaos::ChaosEngine armed with one declarative chaos::FaultPlan; node
// restarts and membership requests enter the plan as labelled calls.
// The outcome carries everything the chaos, determinism and bench callers
// need: the virtual-synchrony traces of every incarnation, serialized
// trace/view lines for byte-comparison, the bounded-retransmission probes,
// and the observability counters.

struct RecoveryOutcome {
  bool converged = false;
  long converged_at_us = -1;
  long rejoin4_requested_us = -1;   // virtual time of site 4's re-join request
  long rejoin4_first_delivery_us = -1;  // first post-rejoin totally-ordered delivery
  std::vector<verify::IncarnationTrace> traces;  // all sites, all incarnations
  // Serialized forms for byte-identical replay comparison.
  std::vector<std::string> trace_lines;  // one line per incarnation
  std::vector<std::string> view_lines;   // one line per site: installed view ids+members
  std::vector<std::uint64_t> retransmissions;  // per site, summed over incarnations
  // Retransmissions towards evicted site 4, sampled once every survivor
  // has installed the eviction and again just before site 4 restarts:
  // equal samples = the counter stopped growing after the view change
  // (the backoff/GC boundedness criterion).
  std::uint64_t retrans_to_evicted_probe1 = 0;
  std::uint64_t retrans_to_evicted_probe2 = 0;
  std::uint64_t net_recoveries = 0;
  std::uint64_t rejoins_completed = 0;       // summed over sites
  std::uint64_t suspicions = 0;              // summed over sites (current incarnations)
  std::uint64_t suspicion_revocations = 0;   // summed over sites (current incarnations)
  // (site, view member) pairs in which the site still suspects the member
  // when the run ends.
  std::uint64_t standing_suspicions = 0;
  std::uint64_t view_change_drops = 0;       // summed over sites + archives
  std::vector<std::string> chaos_log;
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  std::vector<std::uint64_t> gate_waits;  // per site, current incarnation
  std::vector<std::uint64_t> failed_computations;  // per site, all incarnations
  std::uint64_t event_hash = 0;  // SimNetwork event-stream hash (FNV-1a)
};

constexpr int kRecoverySites = 5;
constexpr int kRecoveryMessages = 20;  // burst A (8) + burst B (6) + burst C (6)

/// `hook` as in run_chaos_fleet.
inline RecoveryOutcome run_recovery_fleet(std::uint64_t seed, net::DeliveryHook* hook = nullptr) {
  using namespace std::chrono;

  time::VirtualClock clock;

  GcOptions opts;
  opts.clock = &clock;
  opts.rng_seed = seed;
  opts.retransmit_interval = microseconds(2000);
  opts.retransmit_timeout = microseconds(3000);
  opts.retransmit_backoff_cap = microseconds(12000);
  opts.heartbeat_interval = microseconds(2000);
  opts.fd_timeout = microseconds(4000);
  opts.cs_retry_interval = microseconds(5000);
  opts.cs_retry_timeout = microseconds(8000);

  net::SimNetwork net(net::LinkOptions{.base_latency = microseconds(100),
                                       .jitter = microseconds(200),
                                       .drop_probability = 0.02},
                      seed, &clock);
  net.enable_event_log(/*store_lines=*/false);  // rolling hash only
  net.set_delivery_hook(hook);
  net::TimerService script(&clock);  // harness-owned scenario + chaos timers
  chaos::ChaosEngine engine(net, script);

  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < kRecoverySites; ++i) {
    nodes.push_back(std::make_unique<GroupNode>(net, opts));
  }
  std::vector<SiteId> members;
  for (auto& n : nodes) members.push_back(n->id());
  const SiteId site3 = nodes[3]->id();
  const SiteId site4 = nodes[4]->id();

  RecoveryOutcome out;
  OneShotEvent done;
  bool probed_evicted = false;  // first retransmission probe taken

  const auto now_us = [&clock] {
    return static_cast<long>(
        duration_cast<microseconds>(clock.now().time_since_epoch()).count());
  };
  // Sum of every alive old member's retransmission counter towards the
  // evicted site 4.
  const auto retrans_to_site4 = [&] {
    std::uint64_t sum = 0;
    for (int i = 0; i < 4; ++i) sum += nodes[i]->rel_comm().retransmissions_to(site4);
    return sum;
  };
  const auto all_converged = [&] {
    // The never-crashed sites must hold the complete application history.
    // The rejoined sites must hold site 0's view and have lost no delivery
    // of site 0's order (the vs checker's invariant 5): a site that
    // rejoined after the last delivery has nothing to catch up.
    for (int i = 0; i < 3; ++i) {
      if (nodes[i]->sink().adelivered().size() !=
          static_cast<std::size_t>(kRecoveryMessages)) {
        return false;
      }
    }
    const std::vector<verify::DeliveryRecord> order = nodes[0]->sink().delivery_records();
    if (order.empty()) return false;
    const View view = nodes[0]->membership().view_snapshot();
    for (const int i : {3, 4}) {
      if (!(nodes[i]->membership().view_snapshot() == view)) return false;
      if (!verify::lost_delivery(nodes[i]->vs_traces().back(), order).empty()) return false;
    }
    return true;
  };
  const auto shut_down_fleet = [&] {
    for (auto& n : nodes) n->stop_timers();
    script.cancel_all();  // includes the timer whose callback is running
  };

  {
    // Freeze virtual time while the scenario is armed.
    time::Pin setup(clock);
    for (auto& n : nodes) n->start(View(1, members));

    Rng rng(seed);
    int sent = 0;
    // Burst A: everyone is up.
    for (int i = 0; i < 8; ++i) {
      const auto who = rng.next_below(kRecoverySites);
      const std::string payload = std::string("m").append(std::to_string(sent++));
      script.schedule(microseconds(200 + 200 * i),
                      [&nodes, who, payload] { nodes[who]->abcast(payload); });
    }
    // Burst B: while site 4 is back but site 3 is still a member.
    std::vector<std::pair<int, std::string>> burst_b;
    for (int i = 0; i < 6; ++i) {
      // Origins 0..3.
      burst_b.emplace_back(rng.next_below(4), std::string("m").append(std::to_string(sent++)));
    }
    // Burst C: after site 3's restart; site 3 is mid-rejoin, so origins
    // are the other four.
    std::vector<std::pair<int, std::string>> burst_c;
    for (int i = 0; i < 6; ++i) {
      const int origins[4] = {0, 1, 2, 4};
      burst_c.emplace_back(origins[rng.next_below(4)],
                           std::string("m").append(std::to_string(sent++)));
    }

    chaos::FaultPlan plan;
    // Cycle 1: crash site 4 while a partition between 1 and 2 is up, evict
    // it, probe the (frozen) retransmission counter twice (the first probe
    // is the poller below), then restart + rejoin. The partition outlasts
    // the failure-detector timeout, so where an instance of 1 waits on 2 as
    // its coordinator (or the other way round), it suspects it, and must
    // revoke after the heal. The plain broadcast at the crash is a send to
    // the dead site that outlives retransmit_timeout before the eviction is
    // even requested: node 0 sends it at 5 ms, its retransmit tick at 8 ms
    // finds it 3 ms old (the timeout) and resends it, and the eviction
    // starts at 9 ms.
    plan.partition(microseconds(1500), nodes[1]->id(), nodes[2]->id())
        .call(microseconds(5000), "crash node 4", [&nodes] { nodes[4]->crash(); })
        .call(microseconds(5000), "rbcast to the crashed node 4",
              [&nodes] { nodes[0]->rbcast("to-crashed"); })
        .call(microseconds(9000), "evict node 4",
              [&nodes, site4] { nodes[0]->request_leave(site4); })
        .heal(microseconds(26000), nodes[1]->id(), nodes[2]->id())
        .call(microseconds(33500), "re-probe retransmissions to evicted node 4",
              [&out, retrans_to_site4] { out.retrans_to_evicted_probe2 = retrans_to_site4(); })
        .call(microseconds(34000), "restart node 4", [&nodes] { nodes[4]->restart(); })
        .call(microseconds(35000), "rejoin node 4", [&nodes, &out, site4, now_us] {
          out.rejoin4_requested_us = now_us();
          nodes[0]->request_join(site4);
        });
    for (std::size_t i = 0; i < burst_b.size(); ++i) {
      const auto [who, payload] = burst_b[i];
      plan.call(microseconds(38000 + 300 * i), "abcast " + payload,
                [&nodes, who, payload] { nodes[who]->abcast(payload); });
    }
    // Cycle 2: crash site 3 under a loss burst, evict, restart, rejoin.
    plan.loss_burst(microseconds(44000), microseconds(52000),
                    net::LinkOptions{.base_latency = microseconds(100),
                                     .jitter = microseconds(200),
                                     .drop_probability = 0.20})
        .call(microseconds(45000), "crash node 3", [&nodes] { nodes[3]->crash(); })
        .call(microseconds(47000), "evict node 3",
              [&nodes, site3] { nodes[0]->request_leave(site3); })
        .call(microseconds(62000), "restart node 3", [&nodes] { nodes[3]->restart(); })
        .call(microseconds(63000), "rejoin node 3",
              [&nodes, site3] { nodes[2]->request_join(site3); });
    for (std::size_t i = 0; i < burst_c.size(); ++i) {
      const auto [who, payload] = burst_c[i];
      plan.call(microseconds(68000 + 300 * i), "abcast " + payload,
                [&nodes, who, payload] { nodes[who]->abcast(payload); });
    }
    engine.arm(plan);

    // First retransmission probe: the first poll at which every survivor
    // has installed site 4's eviction. From then on no survivor holds a
    // send to site 4, so the re-probe can only read the same count. A
    // fixed time cannot promise that: under the partition and the loss a
    // round that reaches exactly a majority stalls a retry timeout per
    // lost reply.
    script.schedule_periodic(microseconds(500), [&] {
      if (probed_evicted || out.rejoin4_requested_us >= 0) return;
      for (int i = 0; i < 4; ++i) {
        if (nodes[i]->membership().view_snapshot().contains(site4)) return;
      }
      probed_evicted = true;
      out.retrans_to_evicted_probe1 = retrans_to_site4();
    });
    // Recovery-time metric: first totally-ordered delivery at site 4's new
    // incarnation, polled at scenario resolution.
    script.schedule_periodic(microseconds(500), [&] {
      if (out.rejoin4_first_delivery_us >= 0 || out.rejoin4_requested_us < 0) return;
      if (!nodes[4]->sink().delivery_records().empty()) {
        out.rejoin4_first_delivery_us = now_us();
      }
    });
    // Convergence checker (scripted, so the shutdown point is virtual-time
    // deterministic).
    script.schedule_periodic(microseconds(1000), [&] {
      if (!all_converged()) return;
      out.converged = true;
      out.converged_at_us = now_us();
      shut_down_fleet();
      done.set();
    });
    // Horizon failsafe.
    script.schedule(microseconds(5'000'000), [&] {
      shut_down_fleet();
      done.set();
    });
  }

  done.wait();
  // Quiesce to the fixpoint (see run_chaos_fleet).
  std::uint64_t prev = ~std::uint64_t{0};
  for (;;) {
    net.drain();
    for (auto& n : nodes) n->drain();
    const std::uint64_t total = net.stats().sent.value() + net.stats().delivered.value() +
                                net.stats().dropped.value();
    if (total == prev) break;
    prev = total;
  }

  for (auto& n : nodes) {
    for (auto& t : n->vs_traces()) out.traces.push_back(std::move(t));
    out.retransmissions.push_back(n->total_retransmissions());
    out.rejoins_completed += n->rejoins_completed();
    out.suspicions += n->detector().suspicions();
    out.suspicion_revocations += n->detector().suspicion_revocations();
    const View view = n->membership().view_snapshot();
    for (SiteId member : view.members()) {
      if (n->detector().is_suspected(member)) ++out.standing_suspicions;
    }
    out.view_change_drops += n->rel_comm().view_change_drops();
    for (const auto& arc : n->archives()) out.view_change_drops += arc.view_change_drops;
  }
  for (const auto& t : out.traces) {
    std::ostringstream os;
    os << "site" << t.site.value() << "/inc" << t.incarnation
       << (t.crashed ? "/crashed" : "/alive");
    for (const auto& r : t.deliveries) {
      os << " " << r.ordinal << ":" << r.id << ":" << r.view_id << ":" << r.data;
    }
    out.trace_lines.push_back(os.str());
  }
  for (auto& n : nodes) {
    std::ostringstream os;
    os << "site" << n->id().value() << " views:";
    for (const auto& t : n->vs_traces()) {
      for (const auto& v : t.views) {
        os << " " << v.id() << "{";
        for (const auto& m : v.members()) os << m.value() << ",";
        os << "}";
      }
    }
    out.view_lines.push_back(os.str());
  }
  out.chaos_log = engine.log();
  out.net_recoveries = net.stats().recoveries.value();
  out.net_sent = net.stats().sent.value();
  out.net_delivered = net.stats().delivered.value();
  out.net_dropped = net.stats().dropped.value();
  out.gate_waits = gate_waits_per_site(nodes);
  out.failed_computations = failed_computations_per_site(nodes);
  out.event_hash = net.event_hash();
  return out;
}

// --- Churn fleet (fleet-scale failure detection) --------------------------
//
// The E-SWIM scenario: a parameterized fleet (tested up to hundreds of
// sites) driven through scripted churn — flapping links (including an
// asymmetric one-way flap), a minority island partitioned away and healed,
// and a simultaneous crash of ~10% of the fleet — while the selected
// failure detector (heartbeat or SWIM, behind the Detector seam) feeds
// suspicion state and scripted evictions shrink the view. The outcome
// carries detection-latency samples, false-positive pairs (a live site
// suspected by a live observer), the SWIM counters, the vs_checker report
// over every incarnation trace, and serialized trace/view lines so the
// determinism test can byte-compare two same-seed runs.
//
// Site layout (indices into the fleet):
//   [0 .. s-1]                    survivors   (s = sites - crashes)
//   [s .. sites-1]                crash victims (simultaneous crash, then
//                                 evicted one by one from site 0)
//   survivors [s-p .. s-1]        partition island (cut off 8ms..20ms)
//   low survivor indices (1, 2..) flap pairs, disjoint from the island
// Site 0 is never crashed, islanded or flapped: it is the eviction
// proposer and the detection-latency observer.

struct ChurnConfig {
  int sites = 50;
  std::uint64_t seed = 1;
  DetectorImpl detector = DetectorImpl::kSwim;
  int crashes = -1;         // -1 => max(1, sites/10)
  int flap_pairs = 2;       // symmetric flapping links (best effort at small n)
  int oneway_flaps = 1;     // asymmetric (one-direction) flapping links
  int partition_size = -1;  // -1 => max(2, sites/10), clamped to survivors-2
  int abcasts = 6;          // total app broadcasts (half warmup, half post-evict)
  std::chrono::microseconds probe_interval{2000};  // SWIM period
  /// The heartbeat detector's interval (fd_timeout is three of them); zero
  /// sizes it for SWIM's per-site bandwidth, as below.
  std::chrono::microseconds heartbeat_interval{0};
  /// Wait between the simultaneous crash and the first scripted eviction:
  /// the window in which detection latency is sampled.
  std::chrono::microseconds detect_window{20000};
  /// After the crash, site 0 abcasts one message at a time until one of
  /// them goes into a slot a crashed site owns, so that an instance waits
  /// on a crashed coordinator inside the detect window: the only crash the
  /// heartbeat detector watches for.
  bool abcast_into_crashed_slot = false;
  std::chrono::microseconds horizon{5'000'000};
  double drop_probability = 0.01;
};

struct ChurnOutcome {
  bool converged = false;     // survivors agree on the survivor view + all traffic
  long converged_at_us = -1;
  // Detection latency, sampled at site 0 every 500us after the crash:
  // first crashed site suspected / every crashed site suspected (-1 = the
  // eviction landed first, so the sample window closed).
  long first_suspicion_us = -1;
  long all_suspected_us = -1;
  // Distinct (observer, target) survivor pairs ever seen suspected while
  // both were alive — the accuracy cost of churn (flaps, island, losses).
  std::uint64_t false_positive_pairs = 0;
  std::uint64_t suspicions = 0;    // summed over survivors, active detector
  std::uint64_t revocations = 0;   // suspicion revocations, ditto
  // SWIM-only counters (zero under the heartbeat detector).
  std::uint64_t refutations = 0;
  std::uint64_t confirmations = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t ping_reqs_sent = 0;
  std::uint64_t acks_relayed = 0;
  std::uint64_t updates_piggybacked = 0;
  std::uint64_t periods = 0;
  verify::VsReport vs;
  std::vector<verify::IncarnationTrace> traces;
  std::vector<std::string> trace_lines;
  std::vector<std::string> view_lines;
  std::vector<std::string> chaos_log;
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  // FNV-1a over SimNetwork's packet-level event stream (deliveries and
  // late drops, in execution order): the delivery-order
  // fingerprint of the whole run, independent of protocol-level state.
  std::uint64_t event_hash = 0;
  std::vector<std::uint64_t> gate_waits;  // per site
  std::vector<std::uint64_t> failed_computations;  // per site, all incarnations
};

inline ChurnOutcome run_churn_fleet(const ChurnConfig& cfg) {
  using namespace std::chrono;

  const int sites = cfg.sites;
  const int crashes = cfg.crashes >= 0 ? cfg.crashes : std::max(1, sites / 10);
  const int s = sites - crashes;  // survivors
  const int island =
      std::clamp(cfg.partition_size >= 0 ? cfg.partition_size : std::max(2, sites / 10), 0,
                 std::max(0, s - 2));
  const int island_begin = s - island;  // survivor indices [island_begin, s)
  // Flap pairs walk up from survivor index 1 and stop before the island.
  int flap_cursor = 1;
  const auto take_pair = [&](int& a, int& b) {
    if (flap_cursor + 1 >= island_begin) return false;
    a = flap_cursor++;
    b = flap_cursor++;
    return true;
  };

  time::VirtualClock clock;

  GcOptions opts;
  opts.clock = &clock;
  opts.rng_seed = cfg.seed;
  opts.retransmit_interval = microseconds(2000);
  opts.retransmit_timeout = microseconds(3000);
  opts.retransmit_backoff_cap = microseconds(12000);
  opts.cs_retry_interval = microseconds(5000);
  opts.cs_retry_timeout = microseconds(8000);
  opts.detector_impl = cfg.detector;
  opts.swim_probe_interval = cfg.probe_interval;
  opts.swim_ack_timeout = microseconds(600);
  // Equal-bandwidth heartbeat baseline: SWIM sends O(1) packets per period
  // per site; all-to-all heartbeats send (n-1). Matching per-site send
  // rates means hb_interval scales with n — which is exactly why heartbeat
  // detection latency grows O(n) at fixed bandwidth (the E-SWIM story).
  opts.heartbeat_interval = cfg.heartbeat_interval.count() > 0
                                ? cfg.heartbeat_interval
                                : cfg.probe_interval * std::max(1, sites - 1) / 2;
  opts.fd_timeout = 3 * opts.heartbeat_interval;

  net::SimNetwork net(net::LinkOptions{.base_latency = microseconds(100),
                                       .jitter = microseconds(200),
                                       .drop_probability = cfg.drop_probability},
                      cfg.seed, &clock);
  net.enable_event_log(/*store_lines=*/false);  // rolling hash only
  net::TimerService script(&clock);
  chaos::ChaosEngine engine(net, script);

  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < sites; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  std::vector<SiteId> members;
  for (auto& n : nodes) members.push_back(n->id());

  ChurnOutcome out;
  OneShotEvent done;

  const auto now_us = [&clock] {
    return static_cast<long>(
        duration_cast<microseconds>(clock.now().time_since_epoch()).count());
  };
  // Survivor id set, for the view-agreement convergence criterion.
  std::vector<SiteId> survivor_ids(members.begin(), members.begin() + s);
  int abcasts = cfg.abcasts;  // plus those into the crashed sites' slots
  bool into_crashed = false;  // one of them went into a crashed site's slot
  const auto all_converged = [&] {
    for (int i = 0; i < s; ++i) {
      if (nodes[i]->sink().adelivered().size() != static_cast<std::size_t>(abcasts)) {
        return false;
      }
      if (nodes[i]->membership().view_snapshot().members() != survivor_ids) return false;
    }
    return true;
  };
  const auto shut_down_fleet = [&] {
    for (auto& n : nodes) n->stop_timers();
    script.cancel_all();
  };

  // False-positive sampling state: packed (observer, target) pairs.
  std::unordered_set<std::uint64_t> fp_pairs;
  const int fp_observers = std::min(s, 8);

  {
    time::Pin setup(clock);
    for (auto& n : nodes) n->start(View(1, members));

    chaos::FaultPlan plan;

    // Warmup traffic, finished well before the churn starts.
    int sent = 0;
    for (int i = 0; i < cfg.abcasts / 2; ++i) {
      const int who = i % s;
      const std::string payload = std::string("a").append(std::to_string(sent));
      plan.call(microseconds(500 + 400 * i), "abcast " + payload,
                [&nodes, who, payload] { nodes[who]->abcast(payload); });
      ++sent;
    }

    // Flapping links among low-index survivors (disjoint from the island):
    // cut/heal three times with a 2ms period, 6ms..16ms.
    for (int p = 0; p < cfg.flap_pairs; ++p) {
      int a = 0, b = 0;
      if (!take_pair(a, b)) break;
      plan.flap(microseconds(6000), members[a], members[b], microseconds(2000), 3);
    }
    // Asymmetric flap: only the a -> b direction drops, so b keeps hearing
    // a while a times out on b's acks — the classic one-way-link trap for
    // a naive detector.
    for (int p = 0; p < cfg.oneway_flaps; ++p) {
      int a = 0, b = 0;
      if (!take_pair(a, b)) break;
      plan.partition_oneway(microseconds(7000), members[a], members[b])
          .heal_oneway(microseconds(13000), members[a], members[b]);
    }

    // Minority island: survivors [island_begin, s) are cut off from every
    // other site 8ms..20ms — long enough for SWIM to confirm them faulty,
    // so the heal exercises incarnation-numbered resurrection/refutation.
    for (int i = island_begin; i < s; ++i) {
      for (int j = 0; j < sites; ++j) {
        if (j >= island_begin && j < s) continue;
        plan.partition(microseconds(8000), members[i], members[j])
            .heal(microseconds(20000), members[i], members[j]);
      }
    }

    // Simultaneous crash of the last `crashes` sites (one scripted action:
    // a correlated rack failure, not a trickle).
    plan.call(microseconds(30000), "crash " + std::to_string(crashes) + " sites",
              [&nodes, s, sites] {
                for (int i = s; i < sites; ++i) nodes[i]->crash();
              });

    if (cfg.abcast_into_crashed_slot) {
      script.schedule_periodic(microseconds(1000), [&, s] {
        // One at a time, each after site 0 delivered the warmup and the
        // ones before it.
        GroupNode& n = *nodes[0];
        const auto before = static_cast<std::size_t>(cfg.abcasts / 2 + abcasts - cfg.abcasts);
        if (into_crashed || now_us() < 31000 || n.sink().adelivered().size() != before) return;
        const View view = n.membership().view_snapshot();
        const auto owner = std::find(members.begin(), members.end(),
                                     view.member_at(n.ab().next_instance()));
        into_crashed = owner - members.begin() >= s;
        n.abcast(std::string("c").append(std::to_string(abcasts++)));
      });
    }

    // Scripted evictions from site 0 once the detection window closed.
    const auto evict_at = microseconds(30000) + cfg.detect_window;
    for (int i = s; i < sites; ++i) {
      const auto victim = members[i];
      plan.call(evict_at + microseconds(300) * (i - s), "evict site " + std::to_string(i),
                [&nodes, victim] { nodes[0]->request_leave(victim); });
    }

    // Post-eviction traffic: the shrunken view still orders and delivers.
    const auto post_at = evict_at + microseconds(300) * crashes + microseconds(3000);
    for (int i = cfg.abcasts / 2; i < cfg.abcasts; ++i) {
      const int who = (i * 7) % s;
      const std::string payload = std::string("a").append(std::to_string(sent));
      plan.call(post_at + microseconds(400) * i, "abcast " + payload,
                [&nodes, who, payload] { nodes[who]->abcast(payload); });
      ++sent;
    }
    engine.arm(plan);

    // Detection-latency sampling at site 0 (500us resolution). Eviction
    // removes a site from the detector's tracked set, so sampling is only
    // meaningful inside the detect window; unset samples stay -1.
    script.schedule_periodic(microseconds(500), [&, s, sites] {
      if (out.all_suspected_us >= 0) return;
      if (now_us() < 30000) return;
      auto& det = nodes[0]->detector();
      bool any = false, all = true;
      for (int i = s; i < sites; ++i) {
        if (det.is_suspected(members[i])) {
          any = true;
        } else {
          all = false;
        }
      }
      if (any && out.first_suspicion_us < 0) out.first_suspicion_us = now_us();
      if (all && out.all_suspected_us < 0) out.all_suspected_us = now_us();
    });
    // False-positive sampling: a survivor suspected by a live observer.
    script.schedule_periodic(microseconds(2000), [&, s] {
      for (int i = 0; i < fp_observers; ++i) {
        auto& det = nodes[i]->detector();
        for (int j = 0; j < s; ++j) {
          if (j == i) continue;
          if (det.is_suspected(members[j])) {
            fp_pairs.insert((static_cast<std::uint64_t>(i) << 32) |
                            static_cast<std::uint32_t>(j));
          }
        }
      }
    });
    // Convergence checker (scripted shutdown point, virtual-time exact).
    script.schedule_periodic(microseconds(2000), [&] {
      if (!all_converged()) return;
      out.converged = true;
      out.converged_at_us = now_us();
      shut_down_fleet();
      done.set();
    });
    script.schedule(cfg.horizon, [&] {
      shut_down_fleet();
      done.set();
    });
  }

  done.wait();
  // Quiesce to the fixpoint (see run_chaos_fleet).
  std::uint64_t prev = ~std::uint64_t{0};
  for (;;) {
    net.drain();
    for (auto& n : nodes) n->drain();
    const std::uint64_t total = net.stats().sent.value() + net.stats().delivered.value() +
                                net.stats().dropped.value();
    if (total == prev) break;
    prev = total;
  }

  out.false_positive_pairs = fp_pairs.size();
  for (int i = 0; i < s; ++i) {
    out.suspicions += nodes[i]->detector().suspicions();
    out.revocations += nodes[i]->detector().suspicion_revocations();
    if (cfg.detector == DetectorImpl::kSwim) {
      auto& sw = nodes[i]->swim();
      out.refutations += sw.refutations();
      out.confirmations += sw.confirmations();
      out.probes_sent += sw.probes_sent();
      out.ping_reqs_sent += sw.ping_reqs_sent();
      out.acks_relayed += sw.acks_relayed();
      out.updates_piggybacked += sw.updates_piggybacked();
      out.periods += sw.periods();
    }
  }
  for (auto& n : nodes) {
    for (auto& t : n->vs_traces()) out.traces.push_back(std::move(t));
  }
  out.vs = verify::check_virtual_synchrony(out.traces);
  for (const auto& t : out.traces) {
    std::ostringstream os;
    os << "site" << t.site.value() << "/inc" << t.incarnation
       << (t.crashed ? "/crashed" : "/alive");
    for (const auto& r : t.deliveries) {
      os << " " << r.ordinal << ":" << r.id << ":" << r.view_id << ":" << r.data;
    }
    out.trace_lines.push_back(os.str());
  }
  for (auto& n : nodes) {
    std::ostringstream os;
    os << "site" << n->id().value() << " views:";
    for (const auto& t : n->vs_traces()) {
      for (const auto& v : t.views) {
        os << " " << v.id() << "{";
        for (const auto& m : v.members()) os << m.value() << ",";
        os << "}";
      }
    }
    out.view_lines.push_back(os.str());
  }
  out.chaos_log = engine.log();
  out.net_sent = net.stats().sent.value();
  out.net_delivered = net.stats().delivered.value();
  out.net_dropped = net.stats().dropped.value();
  out.event_hash = net.event_hash();
  out.gate_waits = gate_waits_per_site(nodes);
  out.failed_computations = failed_computations_per_site(nodes);
  return out;
}

// --- Explored fleets -------------------------------------------------------
//
// The recovery and chaos fleets double as the distributed exploration
// cells. With an ExploringDeliveryHook on their SimNetwork, every delivery
// step with two or more due lane heads becomes an 'n' decision, and each
// schedule is judged by the fleet oracles: check_virtual_synchrony over
// every incarnation, convergence by the horizon, and zero failed
// computations. fleet_cell() hands a fleet to the shared exploration
// explorer (explore::explore_cell).

enum class ExploredFleet { kRecovery, kChaos };

inline const char* to_string(ExploredFleet fleet) {
  return fleet == ExploredFleet::kRecovery ? "recovery" : "chaos";
}

/// One schedule of an explored fleet.
struct FleetSchedule {
  bool clean = false;   // every oracle held
  std::string verdict;  // the oracles that failed, when not clean
  std::vector<std::string> order;  // site 0's agreed delivery order (payloads)
  std::uint64_t event_hash = 0;
  explore::ScheduleTrace executed;  // the 'n' decisions taken
  bool replay_diverged = false;     // replay_fleet_schedule only
};

/// Run `fleet` at `seed` with `strategy` picking among due packets; nullptr
/// installs no hook (the default delivery order).
inline FleetSchedule run_fleet_schedule(ExploredFleet fleet, std::uint64_t seed,
                                        explore::Strategy* strategy) {
  std::optional<explore::ExploringDeliveryHook> hook;
  if (strategy != nullptr) hook.emplace(*strategy);
  net::DeliveryHook* const h = hook ? &*hook : nullptr;

  FleetSchedule s;
  bool converged = false;
  std::vector<verify::IncarnationTrace> traces;
  std::vector<std::uint64_t> failed;
  if (fleet == ExploredFleet::kRecovery) {
    RecoveryOutcome o = run_recovery_fleet(seed, h);
    converged = o.converged;
    traces = std::move(o.traces);
    failed = std::move(o.failed_computations);
    s.event_hash = o.event_hash;
  } else {
    FleetOutcome o = run_chaos_fleet(seed, h);
    converged = o.converged;
    traces = std::move(o.traces);
    failed = std::move(o.failed_computations);
    s.event_hash = o.event_hash;
    // The chaos fleet stops once sites 0..3 are complete, which can be
    // before site 4's scripted crash and before it caught up: the scenario
    // promises site 4 no liveness, so its last incarnation is judged as
    // ended at the shutdown. Every other rule still applies to it.
    for (auto& t : traces) {
      if (t.site == SiteId(kFleetSites - 1)) t.crashed = true;
    }
  }

  std::ostringstream why;
  if (!converged) why << "not converged by the horizon\n";
  const verify::VsReport vs = verify::check_virtual_synchrony(traces);
  if (!vs.ok()) why << vs.describe() << "\n";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (failed[i] != 0) why << "site " << i << ": " << failed[i] << " failed computations\n";
  }
  s.verdict = why.str();
  s.clean = s.verdict.empty();
  // Site 0 never crashes in either fleet: its first incarnation holds the
  // whole agreed order.
  for (const auto& t : traces) {
    if (t.site != SiteId(0) || t.incarnation != 0) continue;
    for (const auto& r : t.deliveries) s.order.push_back(r.data);
  }
  if (hook) s.executed = hook->trace();
  return s;
}

/// Re-run a recorded schedule: decisions forced from `trace`.
inline FleetSchedule replay_fleet_schedule(ExploredFleet fleet, std::uint64_t seed,
                                           const explore::ScheduleTrace& trace) {
  explore::ReplayStrategy replay(trace);
  FleetSchedule s = run_fleet_schedule(fleet, seed, &replay);
  s.replay_diverged = replay.diverged();
  return s;
}

/// What a fleet cell searches for.
enum class FleetPredicate {
  kOracleViolation,  // a schedule some oracle rejects
  kOrderFlip,        // site 0's agreed order differs from the no-hook run's
};

/// `fleet` at `seed` as a target of the shared explorer. `seen`, when
/// set, observes every schedule the explorer runs, shrink replays included.
inline explore::ExploreTarget fleet_cell(ExploredFleet fleet, std::uint64_t seed,
                                         FleetPredicate predicate,
                                         std::function<void(const FleetSchedule&)> seen = {}) {
  const bool flip = predicate == FleetPredicate::kOrderFlip;
  std::vector<std::string> baseline;
  if (flip) baseline = run_fleet_schedule(fleet, seed, nullptr).order;

  explore::ExploreTarget target;
  target.name = std::string(to_string(fleet)) + (flip ? "_flip" : "") + "_seed" +
                std::to_string(seed);
  target.run = [fleet, seed, flip, baseline = std::move(baseline),
                seen = std::move(seen)](explore::Strategy& strategy) {
    FleetSchedule s = run_fleet_schedule(fleet, seed, &strategy);
    if (seen) seen(s);
    explore::Verdict v;
    if (flip) {
      v.violated = s.order != baseline;
      if (v.violated) v.summary = "site 0's agreed order differs from the default schedule's";
    } else {
      v.violated = !s.clean;
      v.summary = s.verdict;
    }
    v.executed = std::move(s.executed);
    return v;
  };
  target.repro = [fleet, seed, flip](const explore::ScheduleTrace& trace) {
    std::ostringstream out;
    out << "// Repro: replays the shrunk schedule bit-for-bit.\n"
        << "using namespace samoa::gc::testing;\n"
        << "const auto fleet = ExploredFleet::"
        << (fleet == ExploredFleet::kRecovery ? "kRecovery" : "kChaos") << ";\n"
        << "const auto r = replay_fleet_schedule(fleet, " << seed
        << "ULL, samoa::explore::ScheduleTrace::decode(\"" << trace.encode() << "\"));\n"
        << "ASSERT_FALSE(r.replay_diverged);\n";
    if (flip) {
      out << "ASSERT_NE(r.order, run_fleet_schedule(fleet, " << seed << "ULL, nullptr).order);\n";
    } else {
      out << "ASSERT_FALSE(r.clean) << r.verdict;\n";
    }
    return out.str();
  };
  return target;
}

}  // namespace samoa::gc::testing
