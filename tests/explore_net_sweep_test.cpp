// Strategy sweep of network-schedule exploration of the real GroupNode
// stack: the recovery fleet (two crash → evict → restart → rejoin cycles
// under a partition and a loss burst) and the chaos fleet (partition,
// causal stream, crash), each run with SimNetwork's DeliveryHook choosing
// among simultaneously due packets. Every explored schedule must pass the
// fleet oracles — the virtual-synchrony checker over every incarnation,
// convergence by the horizon, zero failed computations. A reach gate shows
// that the explored schedules are not all the default one in disguise:
// both strategies find a schedule that changes the agreed total order,
// shrink it, and replay it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "explore/runner.hpp"
#include "explore/trace.hpp"
#include "test_support.hpp"
#include "virtual_fleet.hpp"

namespace samoa::gc::testing {
namespace {

using explore::CellOptions;
using explore::CellResult;
using explore::Decision;
using explore::ScheduleTrace;
using explore::StrategyKind;

constexpr ExploredFleet kFleets[] = {ExploredFleet::kRecovery, ExploredFleet::kChaos};

std::string label(ExploredFleet fleet, std::uint64_t seed, const char* strategy) {
  return std::string(to_string(fleet)) + " seed " + std::to_string(seed) + " " + strategy;
}

// The clean sweep: every explored schedule of both fleets passes every
// oracle, through the shared explorer.
TEST(ExploreNetSweep, ExploredSchedulesStayClean) {
  const std::uint64_t base = samoa::testing::test_seed(1);
  for (const ExploredFleet fleet : kFleets) {
    for (const StrategyKind strategy : {StrategyKind::kRandomWalk, StrategyKind::kPct}) {
      for (const std::uint64_t seed : {base, base + 1}) {
        SCOPED_TRACE(label(fleet, seed, explore::to_string(strategy)));
        CellOptions opts;
        opts.strategy = strategy;
        opts.seed = seed;
        opts.max_schedules = 8;
        std::size_t schedules = 0;
        const CellResult res = explore::explore_cell(
            opts, fleet_cell(fleet, seed, FleetPredicate::kOracleViolation,
                             [&schedules](const FleetSchedule& s) {
                               ++schedules;
                               std::size_t n = 0;
                               for (const Decision& d : s.executed.decisions()) {
                                 n += d.kind == 'n';
                               }
                               EXPECT_GT(n, 0u) << "schedule " << schedules;
                               EXPECT_EQ(n, s.executed.size()) << "schedule " << schedules;
                             }));
        EXPECT_FALSE(res.violation_found)
            << res.name << " failed an oracle:\n"
            << res.violation_summary << "\nshrunk trace: " << res.shrunk.encode()
            << "\nrepro:\n"
            << res.repro;
        EXPECT_EQ(res.schedules_run, explore::schedule_budget(opts.max_schedules));
        EXPECT_EQ(schedules, res.schedules_run);
        EXPECT_GT(res.decisions.n, 0u);
        EXPECT_EQ(res.decisions.s, 0u);
      }
    }
  }
}

// The reach gate: explored schedules change what the stack agrees on.
// The fleet seed is pinned, not read from SAMOA_TEST_SEED: at most seeds
// no order flip shows within the budget. Atomic payloads travel once, so
// few packets are ever due together; of seeds 1-12 only 4, 5 and 10 flip
// under both strategies (EXPERIMENTS E-EXPLORE-NET, E-LEARN).
TEST(ExploreNetSweep, ExplorationFlipsTheAgreedOrder) {
  constexpr std::uint64_t kSeed = 5;
#ifdef __GLIBCXX__
  // Measured shrunk lengths (from 24 decisions each), libstdc++ specific
  // like the golden hashes: the event order depends on it.
  const std::map<StrategyKind, std::size_t> shrunk_size = {
      {StrategyKind::kRandomWalk, 4},
      {StrategyKind::kPct, 3},
  };
#endif
  const FleetSchedule plain = run_fleet_schedule(ExploredFleet::kRecovery, kSeed, nullptr);
  ASSERT_TRUE(plain.clean) << plain.verdict;
  for (const StrategyKind strategy : {StrategyKind::kRandomWalk, StrategyKind::kPct}) {
    SCOPED_TRACE(explore::to_string(strategy));
    CellOptions opts;
    opts.strategy = strategy;
    opts.seed = kSeed;
    opts.max_schedules = 8;
    const CellResult res = explore::explore_cell(
        opts, fleet_cell(ExploredFleet::kRecovery, kSeed, FleetPredicate::kOrderFlip));
    ASSERT_TRUE(res.violation_found)
        << "no order flip within " << res.schedules_run << " schedules";
    EXPECT_LE(res.shrunk.size(), res.first_violation.size());
    ASSERT_FALSE(res.shrunk.empty()) << "the default schedule cannot flip its own order";
#ifdef __GLIBCXX__
    EXPECT_EQ(res.shrunk.size(), shrunk_size.at(strategy)) << res.shrunk.encode();
#endif
    EXPECT_NE(res.repro.find(res.shrunk.encode()), std::string::npos)
        << "repro snippet must embed the shrunk trace";

    const ScheduleTrace decoded = ScheduleTrace::decode(res.shrunk.encode());
    EXPECT_EQ(decoded, res.shrunk);
    const FleetSchedule a = replay_fleet_schedule(ExploredFleet::kRecovery, kSeed, decoded);
    const FleetSchedule b = replay_fleet_schedule(ExploredFleet::kRecovery, kSeed, decoded);
    EXPECT_FALSE(a.replay_diverged) << decoded.encode();
    EXPECT_NE(a.order, plain.order) << decoded.encode();
    EXPECT_EQ(a.event_hash, b.event_hash);
    EXPECT_EQ(a.order, b.order);
    EXPECT_TRUE(a.clean) << a.verdict;
  }
}

}  // namespace
}  // namespace samoa::gc::testing
