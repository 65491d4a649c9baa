// Property-based sweeps: randomized workloads over randomized microprotocol
// sets, executed under every isolation-preserving policy and multiple
// seeds; the recorded trace must always be conflict-serializable. This is
// the repository's main correctness oracle for the VCA algorithms.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "cc/controller.hpp"
#include "cc/version_gate.hpp"
#include "diag/watchdog.hpp"
#include "test_support.hpp"

namespace samoa {
namespace {

using testing::ProbeMp;

class PolicySeedProperty
    : public ::testing::TestWithParam<std::tuple<CCPolicy, std::uint64_t>> {};

TEST_P(PolicySeedProperty, RandomWorkloadIsIsolated) {
  const auto [policy, seed] = GetParam();
  Rng rng(seed);

  constexpr int kMps = 4;
  Stack stack;
  std::vector<ProbeMp*> mps;
  std::vector<EventType> evs;
  for (int i = 0; i < kMps; ++i) {
    auto& mp = stack.emplace<ProbeMp>("mp" + std::to_string(i),
                                      std::chrono::microseconds(rng.next_below(150)));
    mps.push_back(&mp);
    evs.emplace_back("ev" + std::to_string(i));
    stack.bind(evs.back(), *mp.handler);
  }

  Runtime rt(stack, RuntimeOptions{.policy = policy, .record_trace = true});

  std::vector<ComputationHandle> hs;
  for (int k = 0; k < 40; ++k) {
    // Random non-empty member subset with random per-mp call counts 1..3.
    std::vector<int> picks;
    for (int i = 0; i < kMps; ++i) {
      if (rng.chance(0.5)) picks.push_back(i);
    }
    if (picks.empty()) picks.push_back(static_cast<int>(rng.next_below(kMps)));

    std::vector<std::pair<int, int>> plan;  // (mp index, calls)
    for (int i : picks) plan.emplace_back(i, 1 + static_cast<int>(rng.next_below(3)));
    const bool use_async = rng.chance(0.5);

    Isolation iso = [&]() -> Isolation {
      switch (policy) {
        case CCPolicy::kVCABound: {
          std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds;
          for (auto [i, n] : plan) bounds.emplace_back(mps[i], static_cast<std::uint32_t>(n));
          return Isolation::bound(bounds);
        }
        case CCPolicy::kVCARoute: {
          // Root may call each picked handler directly; no inter-handler
          // edges are needed since ProbeMp handlers never trigger.
          RouteSpec spec;
          for (auto [i, n] : plan) {
            (void)n;
            spec.entry(*mps[i]->handler);
          }
          return Isolation::route(spec);
        }
        case CCPolicy::kVCARW: {
          std::vector<std::pair<const Microprotocol*, Access>> accesses;
          for (auto [i, n] : plan) {
            (void)n;
            accesses.emplace_back(mps[i], Access::kWrite);
          }
          return Isolation::read_write(accesses);
        }
        default: {
          std::vector<const Microprotocol*> members;
          for (auto [i, n] : plan) {
            (void)n;
            members.push_back(mps[i]);
          }
          return Isolation::basic(members);
        }
      }
    }();

    hs.push_back(rt.spawn_isolated(std::move(iso), [&, plan, use_async](Context& ctx) {
      for (auto [i, n] : plan) {
        for (int c = 0; c < n; ++c) {
          if (use_async) {
            ctx.async_trigger(evs[i]);
          } else {
            ctx.trigger(evs[i]);
          }
        }
      }
    }));
  }
  for (auto& h : hs) h.wait();
  rt.drain();

  auto report = check_isolation(rt.trace()->snapshot());
  EXPECT_TRUE(report.isolated) << to_string(policy) << " seed=" << seed << "\n"
                               << report.summary();
  // Every computation appears in the serial order or touched nothing.
  EXPECT_LE(report.equivalent_serial_order.size(), 40u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicySeedProperty,
    ::testing::Combine(::testing::Values(CCPolicy::kSerial, CCPolicy::kVCABasic,
                                         CCPolicy::kVCABound, CCPolicy::kVCARoute,
                                         CCPolicy::kVCARW),
                       // The last slot honours SAMOA_TEST_SEED (seed appears
                       // in the generated test name, so failures name it).
                       ::testing::Values(1u, 7u, 42u, 1234u, testing::test_seed(99999))),
    [](const ::testing::TestParamInfo<std::tuple<CCPolicy, std::uint64_t>>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

class PipelineProperty : public ::testing::TestWithParam<std::tuple<CCPolicy, std::uint64_t>> {};

TEST_P(PipelineProperty, RandomPipelinesAreIsolated) {
  // Chained protocols: stage i triggers stage i+1 (mixed sync/async per
  // message), exercising nested gating and early release under load.
  const auto [policy, seed] = GetParam();
  Rng rng(seed);

  struct PipeMsg {
    int remaining_hops;
    bool async;
  };
  constexpr int kStages = 3;
  Stack stack;
  std::vector<EventType> evs;
  for (int i = 0; i <= kStages; ++i) evs.emplace_back("stage" + std::to_string(i));

  class StageMp : public Microprotocol {
   public:
    StageMp(std::string n, const EventType* next, std::uint64_t work_us)
        : Microprotocol(std::move(n)) {
      handler = &register_handler("run", [this, next, work_us](Context& ctx, const Message& m) {
        calls.fetch_add(1);
        spin_for(std::chrono::microseconds(work_us));
        const auto& msg = m.as<PipeMsg>();
        if (next != nullptr && msg.remaining_hops > 0) {
          PipeMsg fwd{msg.remaining_hops - 1, msg.async};
          if (msg.async) {
            ctx.async_trigger(*next, Message::of(fwd));
          } else {
            ctx.trigger(*next, Message::of(fwd));
          }
        }
      });
    }
    const Handler* handler;
    std::atomic<int> calls{0};
  };

  std::vector<StageMp*> stages;
  for (int i = 0; i < kStages; ++i) {
    const EventType* next = i + 1 < kStages ? &evs[i + 1] : nullptr;
    auto& mp = stack.emplace<StageMp>("stage" + std::to_string(i), next, rng.next_below(100));
    stages.push_back(&mp);
    stack.bind(evs[i], *mp.handler);
  }

  Runtime rt(stack, RuntimeOptions{.policy = policy, .record_trace = true});
  std::vector<ComputationHandle> hs;
  for (int k = 0; k < 30; ++k) {
    const bool async = rng.chance(0.5);
    Isolation iso = [&]() -> Isolation {
      switch (policy) {
        case CCPolicy::kVCABound: {
          std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds;
          for (auto* s : stages) bounds.emplace_back(s, 1);
          return Isolation::bound(bounds);
        }
        case CCPolicy::kVCARoute: {
          RouteSpec spec;
          spec.entry(*stages[0]->handler);
          for (int i = 0; i + 1 < kStages; ++i) {
            spec.edge(*stages[i]->handler, *stages[i + 1]->handler);
          }
          return Isolation::route(spec);
        }
        default: {
          std::vector<const Microprotocol*> members(stages.begin(), stages.end());
          return Isolation::basic(members);
        }
      }
    }();
    hs.push_back(rt.spawn_isolated(std::move(iso), [&, async](Context& ctx) {
      ctx.trigger(evs[0], Message::of(PipeMsg{kStages - 1, async}));
    }));
  }
  for (auto& h : hs) h.wait();
  rt.drain();

  for (auto* s : stages) EXPECT_EQ(s->calls.load(), 30);
  auto report = check_isolation(rt.trace()->snapshot());
  EXPECT_TRUE(report.isolated) << to_string(policy) << " seed=" << seed << "\n"
                               << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineProperty,
    ::testing::Combine(::testing::Values(CCPolicy::kSerial, CCPolicy::kVCABasic,
                                         CCPolicy::kVCABound, CCPolicy::kVCARoute),
                       ::testing::Values(3u, 17u, testing::test_seed(2718))),
    [](const ::testing::TestParamInfo<std::tuple<CCPolicy, std::uint64_t>>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Gate wakeup property: every version published through a GateTable gate
// wakes all waiters whose predicate it satisfies, under randomized
// publish methods (set_lv / increment_lv / deferred schedule_set chains),
// randomized wait styles (exact and window) and randomized timing.
//
// The model mirrors the protocol's structure: the waiter admitted at
// version v is the only publisher of v (Step 3), so lv never races past a
// version whose waiter has not proceeded — the same invariant that makes
// the real algorithms lost-wakeup-free. "Deferred" versions model
// VCAroute's Rule 4(b): no thread waits for them, the schedule_set chain
// publishes them off the back of the preceding publish. A lost wakeup
// strands a waiter forever; the fail-fast watchdog converts that into an
// abort with a blocked-state dump instead of a ctest timeout. The TSan CI
// job runs this test to also catch the data-race flavor of the same bug.
TEST(GateWakeupProperty, PublishAlwaysWakesAllMatchingWaiters) {
  diag::WatchdogOptions wopts;
  wopts.budget = std::chrono::milliseconds(30000);
  wopts.name = "gate_wakeup_property";
  wopts.abort_on_stall = true;
  diag::DeadlockWatchdog dog(wopts);

  for (std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{23}, std::uint64_t{101},
                             std::uint64_t{424}, std::uint64_t{1009}, testing::test_seed(31337)}) {
    Rng rng(seed);
    GateTable gates;
    VersionGate& gate = gates.gate(MicroprotocolId{1});
    constexpr std::uint64_t kVersions = 16;

    // Per-version publish method, fixed up-front. Deferred versions are
    // scheduled before any waiter starts, so they exercise the true
    // deferred path of apply_deferred (consecutive deferrals chain).
    enum class Pub { kSet, kIncrement, kDeferred };
    std::vector<Pub> method(kVersions + 1, Pub::kSet);
    for (std::uint64_t v = 2; v <= kVersions; ++v) {
      const auto r = rng.next_below(3);
      method[v] = r == 0 ? Pub::kSet : (r == 1 ? Pub::kIncrement : Pub::kDeferred);
      if (method[v] == Pub::kDeferred) gate.schedule_set(v - 1, v);
    }

    std::atomic<std::uint64_t> woken{0};
    CCStats stats;
    std::vector<std::thread> waiters;
    for (std::uint64_t v = 1; v <= kVersions; ++v) {
      if (method[v] == Pub::kDeferred) continue;  // published by the chain
      // Exact wait (VCAbasic/route) or window wait (VCAbound). The model's
      // windows overlap (several can be open at one lv), unlike real
      // VCAbound where admission tiles disjoint [pv-bound, pv) windows per
      // gate — so a window waiter released early must still wait for its
      // exact predecessor before publishing, or its set_lv(v) could skip
      // straight past a slower waiter's still-open window (exactly the
      // single-closer-per-version invariant the real controllers keep).
      const bool exact = rng.chance(0.5);
      const std::uint64_t lo = exact ? v - 1 : (v - 1) - rng.next_below(std::min<std::uint64_t>(v, 3));
      const auto spin = std::chrono::nanoseconds(rng.next_below(50000));
      waiters.emplace_back([&, v, exact, lo, spin] {
        if (exact) {
          gate.wait_exact(v - 1, stats, "wakeup-property");
        } else {
          gate.wait_window(lo, v, stats, "wakeup-property");
          gate.wait_exact(v - 1, stats, "wakeup-property");
        }
        spin_for(spin);
        if (method[v] == Pub::kIncrement) {
          gate.increment_lv();
        } else {
          gate.set_lv(v);
        }
        woken.fetch_add(1);
      });
    }
    const auto expected_woken = waiters.size();

    for (auto& t : waiters) t.join();
    EXPECT_EQ(woken.load(), expected_woken) << "seed=" << seed;
    EXPECT_EQ(gate.lv(), kVersions) << "seed=" << seed;
  }
}

// Regression pin for the E2 join-flood livelock: a publish must wake only
// the waiter(s) whose window it opens, never the whole parked population.
// With the broadcast-wakeup gate, each of the K publishes below woke every
// parked waiter (O(K^2) total); the targeted gate delivers at most one
// notification per parked waiter, so the counter is bounded by the number
// of waits that ever parked.
TEST(GateWakeupProperty, PublishWakesOnlyMatchingWaiters) {
  GateTable gates;
  VersionGate& gate = gates.gate(MicroprotocolId{1});
  CCStats stats;
  constexpr std::uint64_t kWaiters = 64;

  std::vector<std::thread> waiters;
  for (std::uint64_t v = 1; v <= kWaiters; ++v) {
    waiters.emplace_back([&gate, &stats, v] {
      gate.wait_exact(v - 1, stats, "targeted-wakeup");
      gate.set_lv(v);
    });
  }
  for (auto& t : waiters) t.join();

  EXPECT_EQ(gate.lv(), kWaiters);
  // Each parked waiter is notified exactly once (waiters that found their
  // version already published never parked and cost zero notifications).
  EXPECT_LE(gate.wakeups_delivered(), kWaiters);
}

}  // namespace
}  // namespace samoa
