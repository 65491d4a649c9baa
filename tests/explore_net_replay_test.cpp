// Replay fidelity of network-schedule exploration of the real GroupNode
// stack: the recovery fleet (two crash → evict → restart → rejoin cycles
// under a partition and a loss burst) and the chaos fleet (partition,
// causal stream, crash), each run with SimNetwork's DeliveryHook choosing
// among simultaneously due packets. A recorded 'n'-decision trace
// reproduces the run bit-for-bit — event hash, executed trace, agreed
// order and verdict — across strategies, and a hook that always picks
// index 0 reproduces the default (deliver_at, seq) merge order exactly,
// while a run without a hook makes no decision at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "explore/strategy.hpp"
#include "explore/trace.hpp"
#include "test_support.hpp"
#include "virtual_fleet.hpp"

namespace samoa::gc::testing {
namespace {

using explore::Decision;

constexpr ExploredFleet kFleets[] = {ExploredFleet::kRecovery, ExploredFleet::kChaos};

std::string label(ExploredFleet fleet, std::uint64_t seed, const char* strategy) {
  return std::string(to_string(fleet)) + " seed " + std::to_string(seed) + " " + strategy;
}

// Replay fidelity: a recorded trace reproduces the run.
TEST(ExploreNetReplay, RecordedTracesReplayWithTheSameEventHash) {
  const std::uint64_t seed = samoa::testing::test_seed(1);
  for (const ExploredFleet fleet : kFleets) {
    explore::RandomWalkStrategy walk(seed);
    explore::PctStrategy pct(seed, /*k=*/3);
    explore::FirstStrategy first;
    explore::Strategy* strategies[] = {&walk, &pct, &first};
    const char* names[] = {"random-walk", "pct", "first"};
    for (std::size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE(label(fleet, seed, names[i]));
      const FleetSchedule recorded = run_fleet_schedule(fleet, seed, strategies[i]);
      EXPECT_TRUE(recorded.clean) << recorded.verdict;
      EXPECT_FALSE(recorded.executed.empty()) << "no decision point in the whole run";
      for (const Decision& d : recorded.executed.decisions()) EXPECT_EQ(d.kind, 'n');

      const FleetSchedule replayed = replay_fleet_schedule(fleet, seed, recorded.executed);
      EXPECT_FALSE(replayed.replay_diverged) << recorded.executed.encode();
      EXPECT_EQ(replayed.event_hash, recorded.event_hash);
      EXPECT_EQ(replayed.executed, recorded.executed);
      EXPECT_EQ(replayed.order, recorded.order);
      EXPECT_EQ(replayed.clean, recorded.clean);
    }
  }
}

// Index 0 is the default merge choice, so FirstStrategy changes nothing.
TEST(ExploreNetReplay, FirstStrategyReproducesTheDefaultOrder) {
  // The recovery fleet's golden hashes are determinism_test's, libstdc++
  // specific for the same reason.
#ifdef __GLIBCXX__
  const std::map<std::uint64_t, std::uint64_t> golden = {
      {1ull, 0xe90c0f206ed49c52ull},
      {17ull, 0x75d186bc7cdf1c32ull},
  };
#endif
  for (const std::uint64_t seed : {1ull, 17ull}) {
    for (const ExploredFleet fleet : kFleets) {
      SCOPED_TRACE(label(fleet, seed, "first"));
      const FleetSchedule plain = run_fleet_schedule(fleet, seed, nullptr);
      explore::FirstStrategy first;
      const FleetSchedule hooked = run_fleet_schedule(fleet, seed, &first);
      EXPECT_TRUE(plain.executed.empty());
      EXPECT_FALSE(hooked.executed.empty()) << "no decision point in the whole run";
      EXPECT_EQ(hooked.event_hash, plain.event_hash);
      EXPECT_EQ(hooked.order, plain.order);
      EXPECT_TRUE(plain.clean) << plain.verdict;
#ifdef __GLIBCXX__
      if (fleet == ExploredFleet::kRecovery) {
        EXPECT_EQ(hooked.event_hash, golden.at(seed))
            << "actual hash is 0x" << std::hex << hooked.event_hash;
      }
#endif
    }
  }
}

}  // namespace
}  // namespace samoa::gc::testing
