// Strategy x policy sweep of the schedule explorer — the tier-1 sanity
// gate: within a bounded schedule budget the explorer must expose the
// kUnsync baseline as non-isolated (with a shrunk, replayable
// counterexample), while kSerial, the whole VCA family and kTSO come out
// clean on the same conflicting workload. A miss on either side means the
// harness, not the controllers, is broken: too weak to drive conflicting
// interleavings, or observing schedules that cannot happen.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/runner.hpp"
#include "explore/trace.hpp"
#include "test_support.hpp"

namespace samoa::explore {
namespace {

CellOptions gate_cell(CCPolicy policy, StrategyKind strategy) {
  CellOptions o;
  o.policy = policy;
  o.strategy = strategy;
  o.seed = samoa::testing::test_seed(42);
  o.comps = 4;
  o.mps = 3;
  o.calls = 3;
  o.max_schedules = 40;
  return o;
}

TEST(ExploreSweep, RandomWalkFlagsUnsyncWithShrunkCounterexample) {
  const CellResult res = explore_cell(gate_cell(CCPolicy::kUnsync, StrategyKind::kRandomWalk));
  ASSERT_TRUE(res.violation_found)
      << "random walk never violated kUnsync within " << res.schedules_run << " schedules (seed "
      << res.options.seed << ")";
  EXPECT_FALSE(res.violation_summary.empty());
  EXPECT_LE(res.shrunk.size(), res.first_violation.size());
  ASSERT_FALSE(res.shrunk.empty()) << "the natural schedule should not violate";
  EXPECT_NE(res.repro.find(res.shrunk.encode()), std::string::npos)
      << "repro snippet must embed the shrunk trace";

  // The shrunk counterexample replays: same workload, forced decisions,
  // violation reproduced, no divergence.
  const RunResult replay = replay_schedule(res.options, res.shrunk);
  EXPECT_FALSE(replay.replay_diverged) << res.shrunk.encode();
  EXPECT_TRUE(replay.violated) << res.shrunk.encode();
}

TEST(ExploreSweep, ReproSnippetTraceSurvivesTextRoundtrip) {
  const CellResult res = explore_cell(gate_cell(CCPolicy::kUnsync, StrategyKind::kRandomWalk));
  ASSERT_TRUE(res.violation_found);
  // What a human pastes from the repro is the *encoded* trace: decode it
  // back and replay, exactly as the snippet instructs.
  const ScheduleTrace decoded = ScheduleTrace::decode(res.shrunk.encode());
  const RunResult replay = replay_schedule(res.options, decoded);
  EXPECT_TRUE(replay.violated);
  EXPECT_FALSE(replay.replay_diverged);
}

TEST(ExploreSweep, PctFlagsUnsync) {
  CellOptions o = gate_cell(CCPolicy::kUnsync, StrategyKind::kPct);
  o.max_schedules = 100;
  o.pct_k = 3;
  const CellResult res = explore_cell(o);
  EXPECT_TRUE(res.violation_found)
      << "PCT never violated kUnsync within " << res.schedules_run << " schedules (seed "
      << res.options.seed << ")";
}

TEST(ExploreSweep, ExhaustiveFlagsUnsyncWithinDepthBound) {
  // Two computations, one shared microprotocol: the schedule space within
  // depth 8 is a few hundred runs; DFS must hit the overlap.
  CellOptions o = gate_cell(CCPolicy::kUnsync, StrategyKind::kExhaustive);
  o.comps = 2;
  o.mps = 1;
  o.calls = 1;
  o.exhaustive_depth = 8;
  o.max_schedules = 400;
  const CellResult res = explore_cell(o);
  EXPECT_TRUE(res.violation_found)
      << "exhaustive DFS never violated kUnsync in " << res.schedules_run << " schedules";
}

TEST(ExploreSweep, IsolatingPoliciesStayCleanAcrossTheSweep) {
  // The other half of the gate: every real controller survives the same
  // adversarial schedules. sweep() is also the API the nightly CI job and
  // bench_explore drive.
  CellOptions base = gate_cell(CCPolicy::kVCABasic, StrategyKind::kRandomWalk);
  base.max_schedules = 12;
  const std::vector<CCPolicy> policies = {CCPolicy::kSerial,   CCPolicy::kVCABasic,
                                          CCPolicy::kVCABound, CCPolicy::kVCARoute,
                                          CCPolicy::kVCARW,    CCPolicy::kTSO};
  const std::vector<CellResult> results =
      sweep(policies, {StrategyKind::kRandomWalk}, {samoa::testing::test_seed(42)}, base);
  ASSERT_EQ(results.size(), policies.size());
  for (const CellResult& res : results) {
    EXPECT_FALSE(res.violation_found)
        << res.name << " violated isolation!\n"
        << res.violation_summary << "\nshrunk trace: " << res.shrunk.encode() << "\nrepro:\n"
        << res.repro;
    // Clean cells exhaust their whole budget (scaled by the
    // SAMOA_EXPLORE_SCHEDULES multiplier the nightly job sets).
    EXPECT_EQ(res.schedules_run, schedule_budget(base.max_schedules)) << res.name;
    EXPECT_GT(res.decision_points, 0u) << res.name << ": no decisions were explored";
    // Per-kind accounting: controller cells explore step ('s') decisions
    // but never network ('n') ones — those only exist when a DeliveryHook
    // is installed on a SimNetwork, which these in-process workloads don't
    // use. The kinds must sum to the total.
    EXPECT_EQ(res.decisions.total(), res.decision_points) << res.name;
    EXPECT_GT(res.decisions.s, 0u) << res.name;
    EXPECT_EQ(res.decisions.n, 0u) << res.name;
    EXPECT_FALSE(res.decisions.summary().empty());
  }
}

TEST(ExploreSweep, AdmissionHeavyWorkloadStaysClean) {
  // Admission-heavy cell: twice the computations, one call each, over few
  // microprotocols — nearly every scheduling decision lands in Step 1
  // (the sharded lock-free admission fast path and its publish handshake)
  // rather than inside handler bodies. This is the exploration-side pin
  // for the lock-free gate rewrite: a version ordering broken by a racy
  // admission shows up here as an isolation violation with a shrunk,
  // replayable schedule. The nightly CI sweep reruns this cell at 16x the
  // schedule budget across its seed matrix.
  CellOptions base = gate_cell(CCPolicy::kVCABasic, StrategyKind::kRandomWalk);
  base.comps = 8;
  base.mps = 2;
  base.calls = 1;
  base.max_schedules = 10;
  const std::vector<CCPolicy> policies = {CCPolicy::kSerial,   CCPolicy::kVCABasic,
                                          CCPolicy::kVCABound, CCPolicy::kVCARoute,
                                          CCPolicy::kVCARW,    CCPolicy::kTSO};
  const std::vector<CellResult> results =
      sweep(policies, {StrategyKind::kRandomWalk}, {samoa::testing::test_seed(42)}, base);
  ASSERT_EQ(results.size(), policies.size());
  for (const CellResult& res : results) {
    EXPECT_FALSE(res.violation_found)
        << res.name << " violated isolation under the admission-heavy workload!\n"
        << res.violation_summary << "\nshrunk trace: " << res.shrunk.encode() << "\nrepro:\n"
        << res.repro;
    EXPECT_EQ(res.schedules_run, schedule_budget(base.max_schedules)) << res.name;
  }
}

}  // namespace
}  // namespace samoa::explore
