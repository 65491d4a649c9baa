// Schedule-exploration sweep (E-EXPLORE + E-EXPLORE-NET) — the numbers
// behind the EXPERIMENTS.md entries and the nightly CI job.
//
// Part 1 (E-EXPLORE) runs the standard conflicting cell (4 computations x
// 3 triggers over a 3-mp stack with a shared hotspot) under every
// controller policy and every exploration strategy, and reports per cell:
// schedules executed, decision points by kind (s=step, n=network), wall
// cost, and — when a violation is found — the trace sizes before and
// after shrinking.
//
// Part 2 (E-EXPLORE-NET) explores SimNetwork delivery order on the real
// GroupNode stack: the 5-site recovery fleet (two crash -> evict ->
// restart -> rejoin cycles) and the 5-site chaos fleet
// (tests/virtual_fleet.hpp), under random-walk and PCT. Per fleet x
// strategy it reports schedules, 'n' decisions, distinct event hashes and
// the oracle verdict (vs checker over every incarnation, convergence by
// the horizon, zero failed computations), then searches for a schedule
// that changes site 0's agreed delivery order: the first hit, and its
// trace before and after shrinking.
//
// The exit code gates the oracles only: kUnsync must be flagged
// non-isolated by every strategy within the budget, the isolating
// policies must stay clean, and every explored fleet schedule must pass
// every oracle. The order-flip search is reported, not gated: the nightly
// job passes arbitrary seeds, and at some seeds no flip shows within the
// budget.
//
// Usage: bench_explore [max_schedules] [seed]   (defaults 64, 42)
// Honors SAMOA_EXPLORE_SCHEDULES (budget multiplier) and
// SAMOA_EXPLORE_DUMP_DIR (shrunk-trace dumps) like the tests do.
#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench_common.hpp"
#include "diag/watchdog.hpp"
#include "explore/runner.hpp"
#include "virtual_fleet.hpp"

int main(int argc, char** argv) {
  samoa::diag::install_env_watchdog("bench_explore");
  using namespace samoa;
  using namespace samoa::explore;

  CellOptions base;
  base.max_schedules =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : std::size_t{64};
  base.seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;

  const std::vector<CCPolicy> policies{CCPolicy::kSerial,   CCPolicy::kUnsync,
                                       CCPolicy::kVCABasic, CCPolicy::kVCABound,
                                       CCPolicy::kVCARoute, CCPolicy::kVCARW,
                                       CCPolicy::kTSO};
  const std::vector<StrategyKind> strategies{StrategyKind::kRandomWalk, StrategyKind::kPct,
                                             StrategyKind::kExhaustive};

  std::printf("E-EXPLORE — schedule exploration, %d policies x %d strategies, budget %zu "
              "schedules/cell (x SAMOA_EXPLORE_SCHEDULES), workload seed %llu\n\n",
              static_cast<int>(policies.size()), static_cast<int>(strategies.size()),
              base.max_schedules, static_cast<unsigned long long>(base.seed));
  std::printf("%-10s %-11s %10s %-18s %9s %9s  %s\n", "policy", "strategy", "schedules",
              "decisions", "wall-ms", "us/sched", "verdict");

  bool unsync_flagged_by_all = true;
  bool isolating_clean = true;
  for (StrategyKind strategy : strategies) {
    bool unsync_flagged = false;
    for (CCPolicy policy : policies) {
      CellOptions opts = base;
      opts.policy = policy;
      opts.strategy = strategy;
      const auto start = Clock::now();
      const CellResult r = explore_cell(opts);
      const double wall_ms = bench::ns_since(start) / 1e6;
      const double us_per = r.schedules_run == 0
                                ? 0.0
                                : wall_ms * 1e3 / static_cast<double>(r.schedules_run);

      char verdict[128];
      if (r.violation_found) {
        std::snprintf(verdict, sizeof(verdict), "VIOLATION (trace %zu -> shrunk %zu)",
                      r.first_violation.size(), r.shrunk.size());
      } else {
        std::snprintf(verdict, sizeof(verdict), "clean");
      }
      std::printf("%-10s %-11s %10zu %-18s %9.1f %9.1f  %s\n", to_string(policy),
                  to_string(strategy), r.schedules_run, r.decisions.summary().c_str(), wall_ms,
                  us_per, verdict);

      if (policy == CCPolicy::kUnsync) {
        unsync_flagged = r.violation_found;
      } else if (r.violation_found) {
        isolating_clean = false;
        std::printf("  !! %s should be isolated; repro:\n%s\n", to_string(policy),
                    r.repro.c_str());
      }
    }
    if (!unsync_flagged) {
      unsync_flagged_by_all = false;
      std::printf("  !! %s failed to flag kUnsync within the budget\n", to_string(strategy));
    }
    std::printf("\n");
  }

  // --- Part 2: the real stack under explored delivery orders --------------
  using gc::testing::ExploredFleet;
  using gc::testing::FleetPredicate;
  using gc::testing::FleetSchedule;
  const std::vector<StrategyKind> net_strategies{StrategyKind::kRandomWalk, StrategyKind::kPct};

  std::printf("E-EXPLORE-NET — SimNetwork delivery-order exploration of the real stack "
              "(5-site recovery and chaos fleets), fleet seed %llu\n\n",
              static_cast<unsigned long long>(base.seed));
  std::printf("%-9s %-11s %10s %12s %9s %9s  %-8s %s\n", "fleet", "strategy", "schedules",
              "n-decisions", "distinct", "wall-ms", "verdict", "order flip");

  bool fleets_clean = true;
  for (ExploredFleet fleet : {ExploredFleet::kRecovery, ExploredFleet::kChaos}) {
    for (StrategyKind strategy : net_strategies) {
      CellOptions opts = base;
      opts.strategy = strategy;
      std::set<std::uint64_t> hashes;
      const auto start = Clock::now();
      const CellResult r = explore_cell(
          opts, gc::testing::fleet_cell(fleet, opts.seed, FleetPredicate::kOracleViolation,
                                        [&hashes](const FleetSchedule& s) {
                                          hashes.insert(s.event_hash);
                                        }));
      const double wall_ms = bench::ns_since(start) / 1e6;
      const CellResult flip = explore_cell(
          opts, gc::testing::fleet_cell(fleet, opts.seed, FleetPredicate::kOrderFlip));

      char flip_text[96];
      if (flip.violation_found) {
        std::snprintf(flip_text, sizeof(flip_text), "at schedule %zu (trace %zu -> shrunk %zu)",
                      flip.first_violation_at, flip.first_violation.size(), flip.shrunk.size());
      } else {
        std::snprintf(flip_text, sizeof(flip_text), "none in %zu", flip.schedules_run);
      }
      std::printf("%-9s %-11s %10zu %12llu %9zu %9.1f  %-8s %s\n", to_string(fleet),
                  to_string(strategy), r.schedules_run,
                  static_cast<unsigned long long>(r.decisions.n), hashes.size(), wall_ms,
                  r.violation_found ? "VIOLATED" : "clean", flip_text);
      if (r.violation_found) {
        fleets_clean = false;
        std::printf("  !! %s\n%s\n", r.violation_summary.c_str(), r.repro.c_str());
      }
    }
  }

  std::printf("\nsanity gate: unsync flagged by all strategies = %s, "
              "isolating policies clean = %s, explored fleets clean = %s\n",
              unsync_flagged_by_all ? "yes" : "NO", isolating_clean ? "yes" : "NO",
              fleets_clean ? "yes" : "NO");
  return (unsync_flagged_by_all && isolating_clean && fleets_clean) ? 0 : 1;
}
