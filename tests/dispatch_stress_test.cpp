// Wall-clock dispatch under adversarial load: several spawner threads
// hammer one runtime's elastic pool with a seeded mix of single-mp,
// shared-mp and multi-mp computations, sync and async triggers and
// fan-outs, and a second cell keeps a handler parked mid-task while other
// computations run. A fail-fast deadlock watchdog turns any
// wedge into an immediate abort with a blocked-state dump instead of a
// 300-second ctest timeout. CI runs this under TSan as well.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/controller.hpp"
#include "diag/watchdog.hpp"
#include "tests/test_support.hpp"
#include "util/rng.hpp"

namespace samoa {
namespace {

using namespace std::chrono_literals;
using testing::BlockingMp;
using testing::ProbeMp;

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

constexpr int kSpawnsPerThread = SAMOA_UNDER_TSAN ? 40 : 120;
constexpr int kSpawnerThreads = 4;

class DispatchStress : public ::testing::Test {
 protected:
  void SetUp() override {
    diag::WatchdogOptions opts;
    opts.budget = 60s;
    opts.name = "dispatch_stress";
    opts.abort_on_stall = true;
    if (const char* dir = std::getenv("SAMOA_WATCHDOG_DIR")) opts.dump_dir = dir;
    dog_ = std::make_unique<diag::DeadlockWatchdog>(std::move(opts));
  }
  void TearDown() override { dog_.reset(); }

  std::unique_ptr<diag::DeadlockWatchdog> dog_;
};

struct Workload {
  Stack stack;
  std::vector<ProbeMp*> own;      // one per spawner thread
  ProbeMp* shared = nullptr;      // contended by every thread
  std::vector<EventType> own_ev;
  EventType shared_ev{"Shared"};
  EventType fan_ev{"Fan"};        // bound to three of the own mps

  Workload() {
    for (int i = 0; i < kSpawnerThreads; ++i) {
      auto& mp = stack.emplace<ProbeMp>("own" + std::to_string(i), std::chrono::microseconds(5));
      own.push_back(&mp);
      own_ev.emplace_back("Own" + std::to_string(i));
      stack.bind(own_ev.back(), *mp.handler);
    }
    shared = &stack.emplace<ProbeMp>("shared", std::chrono::microseconds(5));
    stack.bind(shared_ev, *shared->handler);
    for (int i = 0; i < 3; ++i) stack.bind(fan_ev, *own[static_cast<std::size_t>(i)]->handler);
  }
};

TEST_F(DispatchStress, MixedWorkload) {
  const std::uint64_t seed = testing::test_seed(2024);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Workload w;
  RuntimeOptions opts;
  opts.policy = CCPolicy::kVCABasic;
  opts.record_trace = true;
  Runtime rt(w.stack, opts);

  std::atomic<int> spawned{0};
  std::vector<std::thread> spawners;
  for (int t = 0; t < kSpawnerThreads; ++t) {
    spawners.emplace_back([&, t] {
      Rng rng(seed * 1000003u + static_cast<std::uint64_t>(t));
      std::vector<ComputationHandle> inflight;
      for (int i = 0; i < kSpawnsPerThread; ++i) {
        const std::uint64_t shape = rng.next_below(4);
        ComputationHandle h;
        if (shape == 0) {
          // Single private mp, sync + async trigger chain.
          h = rt.spawn_isolated(Isolation::basic({w.own[static_cast<std::size_t>(t)]}),
                                [&, t](Context& ctx) {
                                  ctx.trigger(w.own_ev[static_cast<std::size_t>(t)]);
                                  ctx.async_trigger(w.own_ev[static_cast<std::size_t>(t)]);
                                });
        } else if (shape == 1) {
          // Contended shared mp.
          h = rt.spawn_isolated(Isolation::basic({w.shared}),
                                [&](Context& ctx) { ctx.trigger(w.shared_ev); });
        } else if (shape == 2) {
          // Multi-mp: private + shared, exercises the slow admission path.
          h = rt.spawn_isolated(
              Isolation::basic({w.own[static_cast<std::size_t>(t)], w.shared}),
              [&, t](Context& ctx) {
                ctx.trigger(w.own_ev[static_cast<std::size_t>(t)]);
                ctx.async_trigger(w.shared_ev);
              });
        } else {
          // Async fan-out to three mps.
          h = rt.spawn_isolated(Isolation::basic({w.own[0], w.own[1], w.own[2]}),
                                [&](Context& ctx) { ctx.async_trigger_all(w.fan_ev); });
        }
        spawned.fetch_add(1);
        inflight.push_back(std::move(h));
        if (inflight.size() >= 16) {
          for (auto& handle : inflight) handle.wait();
          inflight.clear();
        }
      }
      for (auto& handle : inflight) handle.wait();
    });
  }
  for (auto& t : spawners) t.join();
  rt.drain();

  EXPECT_EQ(spawned.load(), kSpawnerThreads * kSpawnsPerThread);
  // The version gates, not the pool, keep every mp to one handler at a
  // time.
  for (ProbeMp* mp : w.own) EXPECT_LE(mp->max_in_flight.load(), 1) << mp->name();
  EXPECT_LE(w.shared->max_in_flight.load(), 1);
  testing::expect_isolated(rt);
  EXPECT_GE(rt.pool().peak_thread_count(), 1u);
  dog_->kick();
}

TEST_F(DispatchStress, BlockingChurnKeepsProbesRunning) {
  // Repeatedly park a pool worker inside a handler while other
  // computations keep flowing: every probe must complete while the
  // blocker stays parked, because the pool grows past a parked worker
  // instead of queueing work behind it.
  constexpr int kRounds = SAMOA_UNDER_TSAN ? 4 : 10;
  Stack stack;
  auto& probe = stack.emplace<ProbeMp>("p", std::chrono::microseconds(2));
  EventType probe_ev("P");
  stack.bind(probe_ev, *probe.handler);
  std::vector<BlockingMp*> blockers;
  std::vector<EventType> block_evs;
  for (int r = 0; r < kRounds; ++r) {
    auto& b = stack.emplace<BlockingMp>("b" + std::to_string(r));
    blockers.push_back(&b);
    block_evs.emplace_back("B" + std::to_string(r));
    stack.bind(block_evs.back(), *b.handler);
  }
  RuntimeOptions opts;
  opts.policy = CCPolicy::kVCABasic;
  opts.record_trace = true;
  Runtime rt(stack, opts);
  for (int r = 0; r < kRounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    BlockingMp& blocker = *blockers[static_cast<std::size_t>(r)];
    auto blocked = rt.spawn_isolated(
        Isolation::basic({&blocker}),
        [&, r](Context& ctx) { ctx.trigger(block_evs[static_cast<std::size_t>(r)]); });
    blocker.started.wait();
    // started fires just before the handler parks on release.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (rt.pool().parked_count() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(rt.pool().parked_count(), 1u) << "the blocker never parked";
    std::vector<ComputationHandle> hs;
    for (int i = 0; i < 8; ++i) {
      hs.push_back(rt.spawn_isolated(Isolation::basic({&probe}),
                                     [&](Context& ctx) { ctx.trigger(probe_ev); }));
    }
    for (auto& h : hs) h.wait();
    EXPECT_EQ(probe.calls.load(), (r + 1) * 8);
    EXPECT_FALSE(blocked.done());
    EXPECT_EQ(blocker.calls.load(), 0);
    blocker.release.set();
    blocked.wait();
    dog_->kick();
  }
  rt.drain();
  EXPECT_EQ(probe.calls.load(), kRounds * 8);
  EXPECT_GE(rt.pool().peak_parked_count(), 1u);
  testing::expect_isolated(rt);
}

}  // namespace
}  // namespace samoa
