// Inline dispatch: a Runtime on a virtual clock (and without a step hook)
// runs every computation to completion on the spawning thread, from a
// per-thread FIFO in which async handler tasks run before queued roots.
// These tests pin the ordering contract, the deadlock guard on waits, and
// that a virtual fleet runs every event on the clock's one loop thread,
// starting no dispatch or service threads at all.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/errors.hpp"
#include "gc/group_node.hpp"
#include "net/sim_network.hpp"
#include "net/timer_service.hpp"
#include "test_support.hpp"
#include "time/clock.hpp"

namespace samoa {
namespace {

using testing::ProbeMp;

RuntimeOptions virtual_opts(time::VirtualClock& clock) {
  return RuntimeOptions{.policy = CCPolicy::kVCABasic, .clock = &clock};
}

/// Threads of this process right now (Linux: one /proc/self/task entry
/// each).
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Thread ids that ran some callback, recorded from any thread.
struct ThreadLog {
  std::mutex mu;
  std::set<std::thread::id> ids;

  void note() {
    std::unique_lock lock(mu);
    ids.insert(std::this_thread::get_id());
  }
  std::set<std::thread::id> snapshot() {
    std::unique_lock lock(mu);
    return ids;
  }
};

/// Logs each handler's payload; payloads below 3 chain one more async
/// trigger (payload + 10) from inside the handler.
class ChainMp : public Microprotocol {
 public:
  explicit ChainMp(EventType ev) : Microprotocol("chain"), ev_(ev) {
    handler = &register_handler("log", [this](Context& ctx, const Message& m) {
      const int v = m.as<int>();
      {
        std::unique_lock lock(mu);
        log.push_back(v);
        threads.push_back(std::this_thread::get_id());
      }
      if (v < 3) ctx.async_trigger(ev_, Message::of(v + 10));
    });
  }

  const Handler* handler = nullptr;
  std::mutex mu;
  std::vector<int> log;
  std::vector<std::thread::id> threads;

 private:
  EventType ev_;
};

TEST(InlineDispatch, RunsOnTheSpawningThreadWithNoDispatchWorkers) {
  time::VirtualClock clock;
  Stack stack;
  EventType ev("Chain");
  auto& mp = stack.emplace<ChainMp>(ev);
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, virtual_opts(clock));
  ASSERT_TRUE(rt.runs_inline());

  std::thread::id root_thread;
  auto h = rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) {
    root_thread = std::this_thread::get_id();
    ctx.async_trigger(ev, Message::of(0));
  });
  // The whole computation ran inside spawn_isolated.
  EXPECT_TRUE(h.done());
  EXPECT_EQ(root_thread, std::this_thread::get_id());
  ASSERT_EQ(mp.threads.size(), 2u);
  for (const auto& t : mp.threads) EXPECT_EQ(t, std::this_thread::get_id());
  EXPECT_EQ(rt.pool().peak_thread_count(), 0u);
}

TEST(InlineDispatch, WallClockRuntimeDoesNotRunInline) {
  Stack stack;
  stack.emplace<ProbeMp>("p");
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  EXPECT_FALSE(rt.runs_inline());
}

TEST(InlineDispatch, AsyncHandlersRunInIssueOrder) {
  time::VirtualClock clock;
  Stack stack;
  EventType ev("Chain");
  auto& mp = stack.emplace<ChainMp>(ev);
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, virtual_opts(clock));
  rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) {
      for (int i = 0; i < 3; ++i) ctx.async_trigger(ev, Message::of(i));
    }).wait();
  // FIFO: the three issued by the root first, then the three they issued.
  EXPECT_EQ(mp.log, (std::vector<int>{0, 1, 2, 10, 11, 12}));
}

TEST(InlineDispatch, SpawnFromInsideRunsAfterItsSpawnerCompletes) {
  time::VirtualClock clock;
  Stack stack;
  auto& mp = stack.emplace<ProbeMp>("p");
  EventType ev("Run");
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, virtual_opts(clock));

  bool outer_root_running = false;
  bool inner_saw_outer_root = true;
  std::uint64_t completed_before_inner = 0;
  int handler_calls_before_inner = -1;
  ComputationHandle inner;
  rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) {
    outer_root_running = true;
    inner = rt.spawn_isolated(Isolation::basic({&mp}), [&](Context&) {
      inner_saw_outer_root = outer_root_running;
      completed_before_inner = rt.stats().completed.value();
      handler_calls_before_inner = mp.calls.load();
    });
    EXPECT_FALSE(inner.done()) << "nested spawn ran re-entrantly";
    // Issued after the nested spawn, yet they run before it: queued
    // handler tasks go ahead of queued roots.
    for (int i = 0; i < 3; ++i) ctx.async_trigger(ev);
    outer_root_running = false;
  });
  ASSERT_TRUE(inner.valid());
  EXPECT_TRUE(inner.done());
  EXPECT_FALSE(inner_saw_outer_root);
  EXPECT_EQ(completed_before_inner, 1u) << "the spawner had not completed";
  EXPECT_EQ(handler_calls_before_inner, 3);
}

TEST(InlineDispatch, WaitOnAComputationQueuedBehindTheCallerThrows) {
  time::VirtualClock clock;
  Stack stack;
  auto& mp = stack.emplace<ProbeMp>("p");
  Runtime rt(stack, virtual_opts(clock));

  bool threw = false;
  auto outer = rt.spawn_isolated(Isolation::basic({&mp}), [&](Context&) {
    auto inner = rt.spawn_isolated(Isolation::basic({&mp}), [](Context&) {});
    try {
      inner.wait();  // would never return: inner runs after this root
    } catch (const ConfigError&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_NO_THROW(outer.wait());
  EXPECT_EQ(rt.stats().completed.value(), 2u);
}

TEST(InlineDispatch, VirtualGroupNodeFleetStartsNoDispatchThreads) {
  using namespace std::chrono;
  constexpr int kSites = 20;
  constexpr std::size_t kMessages = 5;
  time::VirtualClock clock;
  gc::GcOptions opts;
  opts.clock = &clock;
  opts.detector_impl = gc::DetectorImpl::kSwim;
  // Every app delivery runs inside a computation spawned by a packet
  // delivery; every script callback is a timer event. Both log their
  // thread. Declared before the fleet, so they outlive its callbacks.
  ThreadLog deliveries, timers;
  const std::size_t threads_before = process_threads();
  net::SimNetwork net(net::LinkOptions{.base_latency = microseconds(100)}, 1, &clock);
  net::TimerService script(&clock);
  std::vector<std::unique_ptr<gc::GroupNode>> nodes;
  for (int i = 0; i < kSites; ++i) nodes.push_back(std::make_unique<gc::GroupNode>(net, opts));
  const std::size_t threads_built = process_threads();
  EXPECT_LE(threads_built, threads_before + 1)
      << "building the network, " << kSites << " nodes and a TimerService started threads";
  std::vector<SiteId> members;
  for (auto& n : nodes) members.push_back(n->id());

  for (auto& n : nodes) {
    n->sink().set_view_source([&deliveries, mb = &n->membership()] {
      deliveries.note();
      return mb->view_snapshot().id();
    });
  }

  OneShotEvent done;
  {
    time::Pin setup(clock);
    for (auto& n : nodes) n->start(gc::View(1, members));
    for (std::size_t i = 0; i < kMessages; ++i) {
      script.schedule(microseconds(500 + 300 * i), [&nodes, &timers, i] {
        timers.note();
        nodes[i]->abcast(std::string("m").append(std::to_string(i)));
      });
    }
    script.schedule_periodic(microseconds(1000), [&] {
      timers.note();
      for (auto& n : nodes) {
        if (n->sink().adelivered().size() < kMessages) return;
      }
      for (auto& n : nodes) n->stop_timers();
      script.cancel_all();
      done.set();
    });
  }
  ASSERT_TRUE(done.wait_for(seconds(60))) << "fleet did not deliver every abcast";
  EXPECT_LE(process_threads(), threads_built) << "the run started threads";
  const std::set<std::thread::id> delivered_on = deliveries.snapshot();
  std::set<std::thread::id> all = timers.snapshot();
  all.insert(delivered_on.begin(), delivered_on.end());
  EXPECT_EQ(delivered_on.size(), 1u) << "packet deliveries ran on several threads";
  EXPECT_EQ(all.size(), 1u) << "packet deliveries and timer callbacks ran on different threads";
  EXPECT_FALSE(all.contains(std::this_thread::get_id()));
  for (int i = 0; i < kSites; ++i) {
    Runtime& rt = nodes[i]->runtime();
    EXPECT_TRUE(rt.runs_inline()) << "site " << i;
    EXPECT_EQ(rt.pool().peak_thread_count(), 0u) << "site " << i;
    EXPECT_EQ(rt.controller().stats().gate_waits.value(), 0u) << "site " << i;
  }
}

}  // namespace
}  // namespace samoa
