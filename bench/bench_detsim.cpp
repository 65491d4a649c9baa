// Deterministic-simulation seed sweep (virtual-time fleets).
//
// Replays a scripted fleet (tests/virtual_fleet.hpp) across a sweep of
// seeds, twice per seed. This is the harness for reproducing a
// distributed-runtime bug: find a seed that trips it, then replay that
// seed as often as needed — every run is identical and costs no real-time
// sleeps.
//
// Usage: bench_detsim [n_seeds] [chaos|recovery]   (default 10 chaos; seeds are 1..n)
//
//   chaos     the chaos fleet (transient partition + crash). One line per
//             seed: convergence time in *virtual* microseconds, wall-clock
//             cost, packet counts, and whether the replay was
//             bit-identical. Exits 0 iff every seed converges and replays
//             identically.
//   recovery  the crash -> evict -> restart -> rejoin fleet. Prints each
//             seed that did not converge with its virtual-synchrony
//             verdict, each seed whose replay diverged or that had a failed
//             computation, then the count and the time to convergence
//             p50/p90/p99. Exits 1 on a replay divergence or a failed
//             computation. A seed that does not converge fails no gate: in
//             about one seed in 6000 site 3's rejoin is ordered before the
//             eviction of its old incarnation, and that stale eviction
//             removes the rejoined one (EXPERIMENTS E-WIRE), so compare a
//             sweep with the parent's.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "diag/watchdog.hpp"
#include "virtual_fleet.hpp"

namespace {

using namespace samoa;
using namespace samoa::gc::testing;

int sweep_chaos(int n_seeds) {
  std::printf("E-DET — virtual-time chaos fleet, %d-seed sweep (%d sites, %d abcasts, %d ccasts "
              "per run, transient partition + crash)\n\n",
              n_seeds, kFleetSites, kFleetAbcasts, kFleetCcasts);
  std::printf("%6s  %12s  %12s  %10s  %10s  %10s\n", "seed", "virt-us", "wall-ms", "sent",
              "dropped", "replay");

  int converged = 0;
  int identical = 0;
  for (int s = 1; s <= n_seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(s);
    const auto start = Clock::now();
    const auto a = run_chaos_fleet(seed);
    const auto b = run_chaos_fleet(seed);
    const double wall_ms = bench::ns_since(start) / 2e6;  // per run

    const bool same = a.converged == b.converged && a.converged_at_us == b.converged_at_us &&
                      a.net_sent == b.net_sent && a.net_delivered == b.net_delivered &&
                      a.net_dropped == b.net_dropped && a.cdelivered == b.cdelivered;
    converged += a.converged ? 1 : 0;
    identical += same ? 1 : 0;
    std::printf("%6llu  %12ld  %12.2f  %10llu  %10llu  %10s\n",
                static_cast<unsigned long long>(seed), a.converged_at_us, wall_ms,
                static_cast<unsigned long long>(a.net_sent),
                static_cast<unsigned long long>(a.net_dropped),
                same ? "identical" : "DIVERGED");
  }
  std::printf("\nconverged %d/%d, bit-identical replays %d/%d\n", converged, n_seeds, identical,
              n_seeds);
  return (converged == n_seeds && identical == n_seeds) ? 0 : 1;
}

/// The value below which a fraction q of `sorted` lies (nearest rank).
long percentile(const std::vector<long>& sorted, double q) {
  if (sorted.empty()) return -1;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()) + 0.999999);
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

int sweep_recovery(int n_seeds) {
  std::printf("E-DET — virtual-time recovery fleet, %d-seed sweep (%d sites, %d abcasts per run, "
              "crash -> evict -> restart -> rejoin)\n\n",
              n_seeds, kRecoverySites, kRecoveryMessages);
  std::vector<long> converged_at_us;
  int diverged = 0;
  int with_failures = 0;
  const auto start = Clock::now();
  for (int s = 1; s <= n_seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(s);
    const auto a = run_recovery_fleet(seed);
    const auto b = run_recovery_fleet(seed);
    const bool same = a.converged == b.converged && a.converged_at_us == b.converged_at_us &&
                      a.event_hash == b.event_hash && a.trace_lines == b.trace_lines &&
                      a.view_lines == b.view_lines && a.net_sent == b.net_sent &&
                      a.net_delivered == b.net_delivered && a.net_dropped == b.net_dropped;
    const std::uint64_t failed =
        std::accumulate(a.failed_computations.begin(), a.failed_computations.end(),
                        std::uint64_t{0});
    if (a.converged) converged_at_us.push_back(a.converged_at_us);
    if (!same) {
      ++diverged;
      std::printf("seed %llu: replay DIVERGED\n", static_cast<unsigned long long>(seed));
    }
    if (failed != 0) {
      ++with_failures;
      std::printf("seed %llu: %llu failed computations\n", static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(failed));
    }
    if (!a.converged) {
      const verify::VsReport vs = verify::check_virtual_synchrony(a.traces);
      std::printf("seed %llu: not converged; vs checker %s\n",
                  static_cast<unsigned long long>(seed),
                  vs.ok() ? "clean" : ("findings:\n" + vs.describe()).c_str());
    }
  }
  std::sort(converged_at_us.begin(), converged_at_us.end());
  const auto not_converged = static_cast<int>(n_seeds - converged_at_us.size());
  std::printf(
      "\nnot converged %d/%d, replay divergences %d, seeds with failed computations %d\n"
      "time to convergence (virtual ms): p50 %.1f  p90 %.1f  p99 %.1f   (wall %.1f s)\n",
      not_converged, n_seeds, diverged, with_failures,
      static_cast<double>(percentile(converged_at_us, 0.50)) / 1000.0,
      static_cast<double>(percentile(converged_at_us, 0.90)) / 1000.0,
      static_cast<double>(percentile(converged_at_us, 0.99)) / 1000.0,
      bench::ns_since(start) / 1e9);
  return (diverged == 0 && with_failures == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  samoa::diag::install_env_watchdog("bench_detsim");
  const int n_seeds = argc > 1 ? std::atoi(argv[1]) : 10;
  const std::string mode = argc > 2 ? argv[2] : "chaos";
  if (mode == "recovery") return sweep_recovery(n_seeds);
  if (mode == "chaos") return sweep_chaos(n_seeds);
  std::fprintf(stderr, "usage: bench_detsim [n_seeds] [chaos|recovery]\n");
  return 2;
}
