// E-SWIM — failure-detector comparison under fleet-scale churn.
//
// Runs the scripted churn scenario (tests/virtual_fleet.hpp): flapping
// links (one asymmetric), a partitioned-then-healed minority island, and a
// simultaneous crash of 10% of the fleet — once per (detector, fleet size)
// cell, on the virtual clock. Both detectors get the same message budget:
// the heartbeat interval is stretched so its per-site send rate matches
// SWIM's one probe per period, which is exactly the trade the SWIM paper
// targets — at fixed bandwidth, heartbeat detection latency grows O(n)
// while SWIM's stays constant.
//
// Reported per cell: detection latency (first crashed site suspected at
// the observer / all crashed sites suspected), false-positive pairs
// (distinct observer->survivor suspicions while both were alive),
// detector traffic, and the virtual-synchrony verdict over every
// incarnation trace.
//
// Usage: bench_swim [tiers]   (default 2 => {5, 50} sites; 3 adds the
//                              200-site cells — the RelCast flood is O(n^2)
//                              packets per broadcast, ~2M per cell, which
//                              inline virtual-time dispatch simulates in
//                              seconds)
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "diag/watchdog.hpp"
#include "virtual_fleet.hpp"

int main(int argc, char** argv) {
  samoa::diag::install_env_watchdog("bench_swim");
  using namespace samoa;
  using namespace samoa::gc;
  using namespace samoa::gc::testing;
  using std::chrono::microseconds;

  const int tiers = argc > 1 ? std::atoi(argv[1]) : 2;
  const int kTierSites[] = {5, 50, 200};
  const int n_tiers = tiers < 1 ? 1 : (tiers > 3 ? 3 : tiers);

  std::printf("E-SWIM — churn fleet, heartbeat vs SWIM at equal per-site bandwidth\n");
  std::printf("(crash 10%% of the fleet at t=30ms virtual; latencies measured from the crash)\n\n");
  std::printf("%10s %6s %12s %12s %9s %11s %11s %10s %9s %8s %5s\n", "detector", "sites",
              "first-us", "all-us", "fp-pairs", "suspicions", "revocations", "net-sent",
              "piggyback", "wall-ms", "vs");

  bool all_ok = true;
  for (int t = 0; t < n_tiers; ++t) {
    const int sites = kTierSites[t];
    for (const auto detector : {DetectorImpl::kHeartbeat, DetectorImpl::kSwim}) {
      ChurnConfig cfg;
      cfg.sites = sites;
      cfg.seed = 1;
      cfg.detector = detector;
      cfg.horizon = microseconds(20'000'000);
      if (detector == DetectorImpl::kHeartbeat) {
        // Equal-bandwidth heartbeat: interval = probe_interval * (n-1) / 2,
        // fd_timeout = 3 * interval, and the detector's check tick runs once
        // per fd_timeout — detection can land up to 2 * fd_timeout past the
        // last contact. Size the pre-eviction sample window for that.
        const auto fd_timeout = 3 * cfg.probe_interval * std::max(1, sites - 1) / 2;
        cfg.detect_window = 3 * fd_timeout + microseconds(20'000);
      } else {
        // SWIM's window covers the dissemination tail: n/10 simultaneous
        // rumors compete for the piggyback cap, so big fleets need
        // linear-ish headroom past the ~log2(n)-round epidemic spread.
        cfg.detect_window = microseconds(sites > 120 ? 20'000 + 200L * sites : 20'000);
      }

      const auto start = Clock::now();
      const auto out = run_churn_fleet(cfg);
      const double wall_ms = bench::ns_since(start) / 1e6;

      const bool ok = out.converged && out.vs.ok();
      all_ok = all_ok && ok;
      const long base = 30'000;  // crash instant (virtual us)
      std::printf("%10s %6d %12ld %12ld %9llu %11llu %11llu %10llu %9llu %8.0f %5s\n",
                  detector == DetectorImpl::kSwim ? "swim" : "heartbeat", sites,
                  out.first_suspicion_us >= 0 ? out.first_suspicion_us - base : -1,
                  out.all_suspected_us >= 0 ? out.all_suspected_us - base : -1,
                  static_cast<unsigned long long>(out.false_positive_pairs),
                  static_cast<unsigned long long>(out.suspicions),
                  static_cast<unsigned long long>(out.revocations),
                  static_cast<unsigned long long>(out.net_sent),
                  static_cast<unsigned long long>(out.updates_piggybacked), wall_ms,
                  ok ? "ok" : "FAIL");
      if (!ok) {
        std::printf("  cell failed: converged=%d vs=%s\n", out.converged,
                    out.vs.describe().c_str());
      }
    }
  }
  std::printf("\n(first-us/all-us: virtual microseconds from the mass crash until the observer\n"
              " suspects the first / every crashed site; -1 = window closed before detection)\n");
  return all_ok ? 0 : 1;
}
