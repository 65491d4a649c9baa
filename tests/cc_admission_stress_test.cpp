// Admission fast-path stress cells — tier-1 pin for the sharded lock-free
// admission scheme (and the TSan subject for its memory ordering).
//
// Three layers are hammered concurrently:
//   1. the raw gate protocol: threads admit / park / publish on shared
//      VersionGates, and the gates must end at exactly the number of
//      admitted versions;
//   2. the controller scoreboard: a single-mp-only workload driven through
//      a real Runtime from many spawner threads must never touch the
//      lock-ordered slow path (admit_slow == 0 is the acceptance criterion
//      for "no-conflict admits take no locks");
//   3. multi-mp admissions racing single-mp ones, which exercises the
//      OrderedAdmission transaction against concurrent lock-free
//      fetch_adds on the same gates.
//
// A fail-fast deadlock watchdog converts any lost wakeup or admission
// deadlock into an abort with a blocked-state dump instead of a silent
// 300-second ctest timeout. The CI TSan job runs this binary to catch the
// data-race flavor of the same bugs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cc/controller.hpp"
#include "cc/version_gate.hpp"
#include "diag/watchdog.hpp"
#include "test_support.hpp"

#if defined(__SANITIZE_THREAD__)
#define SAMOA_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SAMOA_UNDER_TSAN 1
#endif
#endif
#ifndef SAMOA_UNDER_TSAN
#define SAMOA_UNDER_TSAN 0
#endif

namespace samoa {
namespace {

using namespace std::chrono_literals;
using testing::ProbeMp;

// TSan costs ~15x; shrink the iteration counts so the tier-1 wall time
// stays in seconds under both builds.
constexpr int kScale = SAMOA_UNDER_TSAN ? 8 : 1;

diag::WatchdogOptions watchdog_options(const char* name) {
  diag::WatchdogOptions opts;
  opts.budget = std::chrono::milliseconds(60000);
  opts.name = name;
  opts.abort_on_stall = true;
  return opts;
}

// Raw gate protocol under contention: every admitted version is published
// by its owner after waiting for its predecessor (the VCAbasic discipline),
// so admissions, parks and publishes from all threads interleave freely.
TEST(AdmissionStress, GateAdmitParkPublishRace) {
  diag::DeadlockWatchdog dog(watchdog_options("gate-admit-stress"));
  constexpr int kThreads = 8;
  constexpr int kGates = 3;
  const int iters = 20000 / kScale;

  GateTable gates;
  CCStats stats;
  std::atomic<std::uint64_t> admitted_per_gate[kGates] = {};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(testing::test_seed(900) + static_cast<std::uint64_t>(t));
      for (int i = 0; i < iters; ++i) {
        const int g = static_cast<int>(rng.next_below(kGates));
        VersionGate& gate = gates.gate(MicroprotocolId{static_cast<std::uint32_t>(g)});
        const std::uint64_t comp = static_cast<std::uint64_t>(t) * 1000000 + i + 1;
        const std::uint64_t pv = gate.admit(1, comp);
        admitted_per_gate[g].fetch_add(1, std::memory_order_relaxed);
        gate.wait_exact(pv - 1, stats, "stress-admit");
        gate.set_lv(pv);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int g = 0; g < kGates; ++g) {
    VersionGate& gate = gates.gate(MicroprotocolId{static_cast<std::uint32_t>(g)});
    const std::uint64_t admitted = admitted_per_gate[g].load();
    EXPECT_EQ(gate.lv(), admitted) << "gate " << g << " lost a publish";
    EXPECT_EQ(gate.gv(), admitted) << "gate " << g << " lost an admission";
  }
}

// Controller scoreboard: a workload of exclusively single-mp computations,
// spawned concurrently from several threads, must be admitted entirely on
// the lock-free ticket path. admit_slow == 0 here is the repo's acceptance
// criterion for the admission fast path; a regression that sneaks a
// lock-ordered admission into the no-conflict case trips this exact
// counter.
TEST(AdmissionStress, SingleMpWorkloadNeverTakesSlowPath) {
  diag::DeadlockWatchdog dog(watchdog_options("single-mp-admission-stress"));
  constexpr int kSpawners = 4;
  constexpr int kMps = 4;
  const int per_thread = 400 / kScale;

  Stack stack;
  std::vector<ProbeMp*> mps;
  std::vector<EventType> evs;
  for (int i = 0; i < kMps; ++i) {
    auto& mp = stack.emplace<ProbeMp>("mp" + std::to_string(i));
    mps.push_back(&mp);
    evs.emplace_back("ev" + std::to_string(i));
    stack.bind(evs.back(), *mp.handler);
  }
  stack.seal();  // spawners race below; seal before they start

  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  std::vector<std::thread> spawners;
  for (int t = 0; t < kSpawners; ++t) {
    spawners.emplace_back([&, t] {
      Rng rng(testing::test_seed(901) + static_cast<std::uint64_t>(t));
      std::vector<ComputationHandle> hs;
      for (int i = 0; i < per_thread; ++i) {
        const int m = static_cast<int>(rng.next_below(kMps));
        hs.push_back(rt.spawn_isolated(Isolation::basic({mps[m]}),
                                       [&evs, m](Context& ctx) { ctx.trigger(evs[m]); }));
      }
      for (auto& h : hs) h.wait();
    });
  }
  for (auto& t : spawners) t.join();
  rt.drain();

  const CCStats& stats = rt.controller().stats();
  EXPECT_EQ(stats.admit_slow.value(), 0u)
      << "single-mp-only workload touched the lock-ordered admission path";
  EXPECT_EQ(stats.admit_fast.value(), stats.admissions.value());
  int total_calls = 0;
  for (auto* mp : mps) total_calls += mp->calls.load();
  EXPECT_EQ(static_cast<std::uint64_t>(total_calls), stats.admissions.value());
}

// Mixed fast/slow race: multi-mp admissions (lock-ordered transactions
// over their member gates) run against lock-free single-mp admissions on
// the same gates. The atomic-admission invariant must hold throughout —
// the isolation oracle over the recorded trace is the judge.
TEST(AdmissionStress, MultiMpAdmissionsStayAtomicAgainstSingleMpOnes) {
  diag::DeadlockWatchdog dog(watchdog_options("mixed-admission-stress"));
  constexpr int kSpawners = 4;
  constexpr int kMps = 3;
  const int per_thread = 180 / kScale;

  Stack stack;
  std::vector<ProbeMp*> mps;
  std::vector<EventType> evs;
  for (int i = 0; i < kMps; ++i) {
    auto& mp = stack.emplace<ProbeMp>("mp" + std::to_string(i),
                                      std::chrono::microseconds(i * 5));
    mps.push_back(&mp);
    evs.emplace_back("ev" + std::to_string(i));
    stack.bind(evs.back(), *mp.handler);
  }
  stack.seal();

  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic, .record_trace = true});
  std::vector<std::thread> spawners;
  for (int t = 0; t < kSpawners; ++t) {
    spawners.emplace_back([&, t] {
      Rng rng(testing::test_seed(902) + static_cast<std::uint64_t>(t));
      std::vector<ComputationHandle> hs;
      for (int i = 0; i < per_thread; ++i) {
        std::vector<int> picks;
        for (int m = 0; m < kMps; ++m) {
          if (rng.chance(0.4)) picks.push_back(m);
        }
        if (picks.empty()) picks.push_back(static_cast<int>(rng.next_below(kMps)));
        std::vector<const Microprotocol*> members;
        for (int m : picks) members.push_back(mps[m]);
        hs.push_back(rt.spawn_isolated(Isolation::basic(members), [&evs, picks](Context& ctx) {
          for (int m : picks) ctx.trigger(evs[m]);
        }));
      }
      for (auto& h : hs) h.wait();
    });
  }
  for (auto& t : spawners) t.join();
  rt.drain();

  for (auto* mp : mps) {
    EXPECT_LE(mp->max_in_flight.load(), 1)
        << mp->name() << " executed concurrently: admission was not atomic";
  }
  auto report = check_isolation(rt.trace()->snapshot());
  EXPECT_TRUE(report.isolated) << report.summary();
  EXPECT_GT(rt.controller().stats().admit_slow.value(), 0u)
      << "fixture bug: no multi-mp admissions were generated";
  EXPECT_GT(rt.controller().stats().admit_fast.value(), 0u)
      << "fixture bug: no single-mp admissions were generated";
}

}  // namespace
}  // namespace samoa
