// Replay fidelity of the schedule-exploration harness — the property the
// whole tentpole rests on: a (workload seed, decision trace) pair
// reproduces a run bit-for-bit. Covers the ScheduleTrace wire format, the
// strategies' mechanics (exhaustive DFS, replay divergence detection), the
// delta-debugging shrinker against a synthetic oracle, end-to-end replay
// across every controller policy, and the VirtualClock WakePolicy seam
// ('c' decisions).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "explore/runner.hpp"
#include "explore/shrink.hpp"
#include "explore/strategy.hpp"
#include "explore/trace.hpp"
#include "net/timer_service.hpp"
#include "test_support.hpp"
#include "time/clock.hpp"
#include "util/sync.hpp"

namespace samoa::explore {
namespace {

// --- trace wire format ---------------------------------------------------

TEST(ScheduleTrace, EncodeDecodeRoundtrip) {
  ScheduleTrace t;
  t.record('s', 2, 4);
  t.record('s', 0, 3);
  t.record('c', 1, 2);
  EXPECT_EQ(t.encode(), "s2/4.s0/3.c1/2");
  EXPECT_EQ(ScheduleTrace::decode(t.encode()), t);
  EXPECT_TRUE(ScheduleTrace::decode("").empty());
}

TEST(ScheduleTrace, DecodeRejectsMalformedInput) {
  EXPECT_THROW(ScheduleTrace::decode("x1/2"), std::invalid_argument);   // unknown kind
  EXPECT_THROW(ScheduleTrace::decode("s3/2"), std::invalid_argument);   // chosen >= ncand
  EXPECT_THROW(ScheduleTrace::decode("s0/1"), std::invalid_argument);   // not a decision
  EXPECT_THROW(ScheduleTrace::decode("s1"), std::invalid_argument);     // no count
  EXPECT_THROW(ScheduleTrace::decode("gibberish"), std::invalid_argument);
}

// --- strategy mechanics --------------------------------------------------

TEST(ExhaustiveStrategy, EnumeratesEveryPathExactlyOnce) {
  // Synthetic schedule space: every run hits 3 binary decision points.
  ExhaustiveStrategy strat(/*max_depth=*/8);
  std::set<std::string> seen;
  const std::vector<std::uint64_t> keys{1, 2};
  for (int guard = 0; guard < 100; ++guard) {
    ScheduleTrace executed;
    for (int i = 0; i < 3; ++i) {
      const std::size_t pick = strat.choose('s', keys);
      executed.record('s', static_cast<std::uint32_t>(pick), 2);
    }
    EXPECT_TRUE(seen.insert(executed.encode()).second) << "path repeated: " << executed.encode();
    if (!strat.advance(executed)) break;
  }
  EXPECT_EQ(seen.size(), 8u);  // 2^3 distinct paths, then exhaustion
}

TEST(ExhaustiveStrategy, DepthBoundLimitsTheSpace) {
  ExhaustiveStrategy strat(/*max_depth=*/2);
  std::set<std::string> seen;
  const std::vector<std::uint64_t> keys{1, 2};
  for (int guard = 0; guard < 100; ++guard) {
    ScheduleTrace executed;
    for (int i = 0; i < 3; ++i) {
      executed.record('s', static_cast<std::uint32_t>(strat.choose('s', keys)), 2);
    }
    seen.insert(executed.encode());
    if (!strat.advance(executed)) break;
  }
  EXPECT_EQ(seen.size(), 4u);  // only the first two decisions vary
}

TEST(ReplayStrategy, FlagsDivergenceOnCandidateCountMismatch) {
  ScheduleTrace t;
  t.record('s', 1, 3);
  ReplayStrategy strat(t);
  EXPECT_EQ(strat.choose('s', {1, 2}), 1u);  // ncand 2 != recorded 3
  EXPECT_TRUE(strat.diverged());
}

TEST(ReplayStrategy, PastEndFallsBackToZeroWithoutDiverging) {
  ScheduleTrace t;
  t.record('s', 1, 2);
  ReplayStrategy strat(t);
  EXPECT_EQ(strat.choose('s', {1, 2}), 1u);
  EXPECT_EQ(strat.choose('s', {1, 2, 3}), 0u);  // past the trace
  EXPECT_FALSE(strat.diverged());
}

// --- shrinker against a synthetic oracle ---------------------------------

TEST(Shrink, ReducesToTheTwoLoadBearingDecisions) {
  // Violation iff decision 3 picked candidate 2 AND decision 9 picked 1;
  // runs always execute 12 ternary decisions.
  auto run = [](const ScheduleTrace& forced) {
    ScheduleTrace executed;
    for (std::size_t i = 0; i < 12; ++i) {
      std::uint32_t pick = i < forced.size() ? forced.decisions()[i].chosen : 0;
      executed.record('s', std::min(pick, 2u), 3);
    }
    const auto& ds = executed.decisions();
    return ShrinkOutcome{ds[3].chosen == 2 && ds[9].chosen == 1, executed};
  };

  ScheduleTrace noisy;  // the load-bearing picks buried in junk
  for (std::size_t i = 0; i < 12; ++i) {
    noisy.record('s', i == 3 ? 2u : (i == 9 ? 1u : static_cast<std::uint32_t>((i * 7) % 3)), 3);
  }
  ASSERT_TRUE(run(noisy).violated);

  ShrinkStats stats;
  const ScheduleTrace shrunk = shrink_trace(noisy, run, /*max_runs=*/200, &stats);
  ASSERT_TRUE(run(shrunk).violated);
  ASSERT_EQ(shrunk.size(), 10u);  // trailing zeros dropped past decision 9
  for (std::size_t i = 0; i < shrunk.size(); ++i) {
    const std::uint32_t expect = i == 3 ? 2u : (i == 9 ? 1u : 0u);
    EXPECT_EQ(shrunk.decisions()[i].chosen, expect) << "decision " << i;
  }
  EXPECT_LE(stats.final_size, stats.original_size);
  EXPECT_GT(stats.runs, 0u);
}

// --- end-to-end replay fidelity ------------------------------------------

/// Raw MicroprotocolId/HandlerId values are process-global allocations and
/// differ between runs; canonical_log remaps them so equality means "same
/// schedule, bit for bit".
void expect_same_events(const std::vector<TraceEvent>& a, const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(canonical_log(a), canonical_log(b));
}

CellOptions small_cell(CCPolicy policy) {
  CellOptions o;
  o.policy = policy;
  o.seed = samoa::testing::test_seed(7);
  o.comps = 3;
  o.mps = 2;
  o.calls = 2;
  return o;
}

TEST(ExploreReplay, EveryPolicyReplaysBitForBit) {
  for (CCPolicy policy :
       {CCPolicy::kSerial, CCPolicy::kUnsync, CCPolicy::kVCABasic, CCPolicy::kVCABound,
        CCPolicy::kVCARoute, CCPolicy::kVCARW, CCPolicy::kTSO}) {
    const CellOptions opts = small_cell(policy);
    SCOPED_TRACE(std::string(to_string(policy)) + " seed=" + std::to_string(opts.seed));

    RandomWalkStrategy walk(opts.seed);
    const RunResult original = run_schedule(opts, walk);
    ASSERT_FALSE(original.events.empty());

    const RunResult replayed = replay_schedule(opts, original.executed);
    EXPECT_FALSE(replayed.replay_diverged)
        << "trace no longer matches the workload: " << original.executed.encode();
    EXPECT_EQ(replayed.executed, original.executed);
    EXPECT_EQ(replayed.violated, original.violated);
    expect_same_events(original.events, replayed.events);
  }
}

TEST(ExploreReplay, SameStrategySeedGivesIdenticalRuns) {
  const CellOptions opts = small_cell(CCPolicy::kVCABasic);
  RandomWalkStrategy a(opts.seed);
  RandomWalkStrategy b(opts.seed);
  const RunResult r1 = run_schedule(opts, a);
  const RunResult r2 = run_schedule(opts, b);
  EXPECT_EQ(r1.executed, r2.executed);
  expect_same_events(r1.events, r2.events);
}

TEST(ExploreReplay, FirstStrategyRunsSeriallyAndClean) {
  // Index-0 everywhere = the submitting order, run to completion one
  // computation at a time: even kUnsync cannot overlap anything.
  CellOptions opts = small_cell(CCPolicy::kUnsync);
  FirstStrategy first;
  const RunResult r = run_schedule(opts, first);
  EXPECT_FALSE(r.violated) << r.violation_summary;
  EXPECT_TRUE(r.executed.empty() ||
              std::all_of(r.executed.decisions().begin(), r.executed.decisions().end(),
                          [](const Decision& d) { return d.chosen == 0; }));
}

// --- VirtualClock WakePolicy seam ('c' decisions) -------------------------

/// Three timer services, each firing a ladder of one-shot timers (every
/// rung is scheduled by the previous rung's callback); returns which
/// service fired, in firing order.
std::vector<int> run_clock_scenario(time::VirtualClock& clock) {
  const std::vector<std::vector<int>> ladders = {{5, 12, 9}, {7, 3, 11}, {4, 8, 6}};
  std::vector<std::unique_ptr<net::TimerService>> services;
  for (std::size_t i = 0; i < ladders.size(); ++i) {
    services.push_back(std::make_unique<net::TimerService>(&clock));
  }
  std::vector<int> order;  // appended on the clock's loop only
  WaitGroup rungs;
  rungs.add(9);
  std::function<void(std::size_t, std::size_t)> arm = [&](std::size_t idx, std::size_t rung) {
    services[idx]->schedule(std::chrono::milliseconds(ladders[idx][rung]), [&, idx, rung] {
      order.push_back(static_cast<int>(idx));
      if (rung + 1 < ladders[idx].size()) arm(idx, rung + 1);
      rungs.done();
    });
  };
  {
    // Pin virtual time until every ladder's first rung is armed, so the
    // first decision point always sees all three candidates.
    time::Pin setup(clock);
    for (std::size_t idx = 0; idx < ladders.size(); ++idx) arm(idx, 0);
  }
  rungs.wait();
  return order;
}

TEST(ExploreReplay, ClockWakePolicyDecisionsReplay) {
  const std::uint64_t seed = samoa::testing::test_seed(11);

  ScheduleTrace recorded;
  std::vector<int> explored_order;
  {
    time::VirtualClock clock;
    RandomWalkStrategy walk(seed);
    ExploringWakePolicy policy(walk);
    clock.set_wake_policy(&policy);
    explored_order = run_clock_scenario(clock);
    recorded = policy.trace();
  }
  ASSERT_EQ(explored_order.size(), 9u);

  // Replay the 'c' decisions: identical wake order, no divergence.
  {
    time::VirtualClock clock;
    ReplayStrategy replay(recorded);
    ExploringWakePolicy policy(replay);
    clock.set_wake_policy(&policy);
    const std::vector<int> replayed_order = run_clock_scenario(clock);
    EXPECT_EQ(replayed_order, explored_order) << "trace: " << recorded.encode();
    EXPECT_FALSE(replay.diverged());
    EXPECT_EQ(policy.trace(), recorded);
  }

  // Without a policy the clock stays its deterministic min-deadline self.
  {
    time::VirtualClock a;
    time::VirtualClock b;
    EXPECT_EQ(run_clock_scenario(a), run_clock_scenario(b));
  }
}

}  // namespace
}  // namespace samoa::explore
