// Blocked-state registry + deadlock watchdog tests.
//
// The acceptance bar for the diag layer: when a run is wedged, the dump
// must *name* the cycle — which computation waits on which gate version,
// and which computation holds it — rather than just reporting "stuck".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "cc/controller.hpp"
#include "cc/version_gate.hpp"
#include "diag/wait_registry.hpp"
#include "diag/watchdog.hpp"
#include "net/timer_service.hpp"
#include "test_support.hpp"
#include "time/clock.hpp"
#include "util/sync.hpp"

namespace samoa {
namespace {

using namespace std::chrono_literals;
using diag::WaitRegistry;
using testing::BlockingMp;

TEST(WaitRegistry, RecordsAndRemovesWaits) {
  auto& reg = WaitRegistry::instance();
  const auto before = reg.wait_count();
  {
    diag::ScopedWait wait(diag::WaitKind::kExternal, nullptr, "unit", 7, 8, 3);
    EXPECT_EQ(reg.wait_count(), before + 1);
    const diag::Dump dump = reg.snapshot();
    bool found = false;
    for (const auto& w : dump.waits) {
      if (w.subject_name == "unit" && w.awaiting_lo == 7 && w.observed == 3) found = true;
    }
    EXPECT_TRUE(found) << "registered wait missing from snapshot";
  }
  EXPECT_EQ(reg.wait_count(), before);
}

TEST(WaitRegistry, TracksHoldersUntilRelease) {
  auto& reg = WaitRegistry::instance();
  auto gate = std::make_unique<VersionGate>();
  const void* subject = gate.get();
  gate->admit(1, 101);
  gate->admit(1, 102);

  auto holders_of = [&](const diag::Dump& d) -> std::vector<diag::HolderEntry> {
    for (const auto& s : d.subjects) {
      if (s.subject == subject) return s.holders;
    }
    return {};
  };
  auto held = holders_of(reg.snapshot());
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[0].version, 1u);
  EXPECT_EQ(held[0].comp, 101u);

  gate->set_lv(1);  // v1 published: only v2 outstanding
  held = holders_of(reg.snapshot());
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].version, 2u);
  EXPECT_EQ(held[0].comp, 102u);

  gate->set_lv(2);
  EXPECT_TRUE(holders_of(reg.snapshot()).empty());

  gate.reset();  // a destroyed gate leaves the registry
  for (const auto& s : reg.snapshot().subjects) EXPECT_NE(s.subject, subject);
}

/// Polls until computation `comp` is parked and returns the dump that
/// shows it (or the last dump, after 10 s).
diag::Dump dump_once_parked(std::uint64_t comp) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    diag::Dump dump = WaitRegistry::instance().snapshot();
    for (const auto& w : dump.waits) {
      if (w.comp == comp) return dump;
    }
    if (std::chrono::steady_clock::now() > deadline) return dump;
    std::this_thread::sleep_for(1ms);
  }
}

bool has_edge(const diag::Dump& dump, std::uint64_t from, std::uint64_t to) {
  for (const auto& e : dump.edges) {
    if (e.from_comp == from && e.to_comp == to) return true;
  }
  return false;
}

// A runtime's first computation holds versions like any other: a second
// computation parked behind it must get a wait-for edge to it.
TEST(WaitRegistry, FirstComputationIsAHolder) {
  Stack stack;
  auto& mp = stack.emplace<BlockingMp>("first-holder");
  EventType ev("Block");
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto first =
      rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) { ctx.trigger(ev); });
  mp.started.wait();
  // Calls nothing, so it parks at Step 3 until the first publishes v1.
  auto second = rt.spawn_isolated(Isolation::basic({&mp}), [](Context&) {});
  const diag::Dump dump = dump_once_parked(second.id().value());
  EXPECT_TRUE(has_edge(dump, second.id().value(), first.id().value())) << dump.to_text();
  mp.release.set();
  first.wait();
  second.wait();
}

// A computation parked only at Step 3 names the microprotocol it waits
// on, in its wait record and on the gate, though no Step 2 waiter did.
TEST(WaitRegistry, StepThreeWaitNamesItsMicroprotocol) {
  Stack stack;
  auto& mp = stack.emplace<BlockingMp>("step-three");
  EventType ev("Block");
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto first =
      rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) { ctx.trigger(ev); });
  mp.started.wait();
  auto second = rt.spawn_isolated(Isolation::basic({&mp}), [](Context&) {});
  const diag::Dump dump = dump_once_parked(second.id().value());
  const diag::WaitRecord* wait = nullptr;
  for (const auto& w : dump.waits) {
    if (w.comp == second.id().value()) wait = &w;
  }
  ASSERT_NE(wait, nullptr) << dump.to_text();
  EXPECT_EQ(wait->subject_name, "step-three") << dump.to_text();
  std::string gate_name = "(gate missing)";
  for (const auto& s : dump.subjects) {
    if (s.subject == wait->subject) gate_name = s.name;
  }
  EXPECT_EQ(gate_name, "step-three") << dump.to_text();
  mp.release.set();
  first.wait();
  second.wait();
}

// The serial baseline's turn is a version gate: a computation waiting for
// its turn points at the one that is running.
TEST(WaitRegistry, SerialTurnWaitPointsAtTheRunningComputation) {
  Stack stack;
  auto& a = stack.emplace<BlockingMp>("serial-a");
  auto& b = stack.emplace<testing::ProbeMp>("serial-b");
  EventType ev("Block");
  stack.bind(ev, *a.handler);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kSerial});
  auto running =
      rt.spawn_isolated(Isolation::basic({&a}), [&](Context& ctx) { ctx.trigger(ev); });
  a.started.wait();
  // Disjoint declaration: only the serial turn keeps it waiting.
  auto parked = rt.spawn_isolated(Isolation::basic({&b}), [](Context&) {});
  const diag::Dump dump = dump_once_parked(parked.id().value());
  EXPECT_TRUE(has_edge(dump, parked.id().value(), running.id().value())) << dump.to_text();
  a.release.set();
  running.wait();
  parked.wait();
}

TEST(WaitRegistry, ProgressEpochAdvancesOnGatePublish) {
  auto& reg = WaitRegistry::instance();
  const auto before = reg.progress_epoch();
  VersionGate gate;
  gate.set_lv(1);
  EXPECT_GT(reg.progress_epoch(), before);
}

// Two computations, two gates, crossed waits: comp 1 holds gate A's v1
// and waits on gate B; comp 2 holds gate B's v1 and waits on gate A. The
// snapshot must derive both wait-for edges and name the cycle.
class CrossedGateDeadlock {
 public:
  CrossedGateDeadlock() {
    // Gates self-report holders to the registry (HolderSource): admitting
    // through the gate is what records "comp N holds v1".
    gate_a_.admit(1, 1);
    gate_b_.admit(1, 2);
    t1_ = std::thread([this] {
      diag::ScopedComputation as_comp(1);
      gate_b_.wait_exact(1, stats_, "mp-B");  // blocked until comp 2 publishes
      done_.fetch_add(1);
    });
    t2_ = std::thread([this] {
      diag::ScopedComputation as_comp(2);
      gate_a_.wait_exact(1, stats_, "mp-A");  // blocked until comp 1 publishes
      done_.fetch_add(1);
    });
    // Wait until both threads actually parked.
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (parked_waits() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }

  ~CrossedGateDeadlock() {
    // Break the deadlock so the test can end: publish both versions.
    gate_a_.set_lv(1);
    gate_b_.set_lv(1);
    t1_.join();
    t2_.join();
    // The gates unregister themselves from the registry on destruction.
  }

  std::size_t parked_waits() const {
    const auto dump = WaitRegistry::instance().snapshot();
    std::size_t n = 0;
    for (const auto& w : dump.waits) {
      if (w.subject == &gate_a_ || w.subject == &gate_b_) ++n;
    }
    return n;
  }

 private:
  VersionGate gate_a_;
  VersionGate gate_b_;
  CCStats stats_;
  std::thread t1_;
  std::thread t2_;
  std::atomic<int> done_{0};
};

TEST(WaitRegistry, NamesTheCycleOnCrossedGateWaits) {
  CrossedGateDeadlock wedge;
  ASSERT_EQ(wedge.parked_waits(), 2u) << "deadlock fixture failed to park both threads";

  const diag::Dump dump = WaitRegistry::instance().snapshot();
  ASSERT_FALSE(dump.cycle.empty()) << "cycle detection missed a 2-cycle:\n" << dump.to_text();
  // The cycle must name both gates, the versions, and the holders.
  const std::string text = dump.to_text();
  EXPECT_NE(text.find("DEADLOCK CYCLE"), std::string::npos) << text;
  EXPECT_NE(text.find("mp-A"), std::string::npos) << text;
  EXPECT_NE(text.find("mp-B"), std::string::npos) << text;
  EXPECT_NE(text.find("needs v1"), std::string::npos) << text;
  EXPECT_NE(text.find("held by comp"), std::string::npos) << text;

  const std::string json = dump.to_json();
  EXPECT_NE(json.find("\"deadlock\":true"), std::string::npos) << json;
}

TEST(DeadlockWatchdog, FiresOnStallAndReportsCycle) {
  std::atomic<int> stalls_seen{0};
  std::string cycle_text;
  std::mutex text_mu;

  diag::WatchdogOptions opts;
  opts.budget = 300ms;
  opts.poll = 20ms;
  opts.name = "diag-test";
  opts.dump_to_stderr = false;
  opts.on_stall = [&](const diag::Dump& dump) {
    std::unique_lock lock(text_mu);
    if (stalls_seen.fetch_add(1) == 0) cycle_text = dump.to_text();
  };
  diag::DeadlockWatchdog dog(opts);

  {
    CrossedGateDeadlock wedge;
    ASSERT_EQ(wedge.parked_waits(), 2u);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (stalls_seen.load() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(10ms);
    }
  }
  ASSERT_GE(stalls_seen.load(), 1) << "watchdog never detected the induced deadlock";
  EXPECT_GE(dog.stalls(), 1u);
  std::unique_lock lock(text_mu);
  EXPECT_NE(cycle_text.find("DEADLOCK CYCLE"), std::string::npos) << cycle_text;
  EXPECT_NE(cycle_text.find("held by comp"), std::string::npos) << cycle_text;
}

TEST(DeadlockWatchdog, StaysQuietWhenIdle) {
  // An idle process — no parked waits, no queued work — must not count as
  // a stall even though the progress epoch is frozen.
  diag::WatchdogOptions opts;
  opts.budget = 100ms;
  opts.poll = 10ms;
  opts.name = "idle-test";
  opts.dump_to_stderr = false;
  diag::DeadlockWatchdog dog(opts);
  std::this_thread::sleep_for(400ms);
  EXPECT_EQ(dog.stalls(), 0u);
}

TEST(DeadlockWatchdog, KickResetsTheWindow) {
  diag::WatchdogOptions opts;
  opts.budget = 200ms;
  opts.poll = 10ms;
  opts.name = "kick-test";
  opts.dump_to_stderr = false;
  std::atomic<int> stalls_seen{0};
  opts.on_stall = [&](const diag::Dump&) { stalls_seen.fetch_add(1); };
  diag::DeadlockWatchdog dog(opts);

  // Hold a wait open (so the stall predicate is armed) but keep kicking:
  // progress resets the window, so no stall may fire.
  diag::ScopedWait wait(diag::WaitKind::kExternal, nullptr, "kicked", 0, 0, 0);
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(50ms);
    dog.kick();
  }
  EXPECT_EQ(stalls_seen.load(), 0);
}

TEST(DeadlockWatchdog, ClockAwareStuckBudgetIgnoresLongVirtualWaits) {
  // A wait parked for far longer than the stuck budget while the virtual
  // clock keeps advancing is a live simulation, not a wedge. The
  // clock-aware watchdog must stay quiet; an identically-configured
  // wall-budget watchdog (the control) must trip, proving the window the
  // clock awareness closes.
  time::VirtualClock clock;
  // A live simulation: a periodic 1 ms virtual timer whose callback spends
  // 5 ms of wall time, so simulated time keeps moving across the
  // watchdog's polls, the way a long live experiment does.
  net::TimerService driver(&clock);
  driver.schedule_periodic(1ms, [] { std::this_thread::sleep_for(5ms); });

  diag::WatchdogOptions aware_opts;
  aware_opts.budget = 30s;  // only the stuck-wait detector is under test
  aware_opts.poll = 10ms;
  aware_opts.stuck_wait_budget = 150ms;
  aware_opts.clock = &clock;
  aware_opts.name = "vclock-aware";
  aware_opts.dump_to_stderr = false;
  diag::DeadlockWatchdog aware(aware_opts);

  diag::WatchdogOptions naive_opts = aware_opts;
  naive_opts.clock = nullptr;
  naive_opts.name = "vclock-naive";
  diag::DeadlockWatchdog naive(naive_opts);

  {
    diag::ScopedWait wait(diag::WaitKind::kExternal, nullptr, "virtual-sleep", 0, 0, 0);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (naive.stalls() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(10ms);
    }
  }
  EXPECT_GE(naive.stalls(), 1u) << "control never tripped; the fixture is not parking long enough";
  EXPECT_EQ(aware.stalls(), 0u) << "clock-aware watchdog false-tripped on a live simulation";
}

TEST(DeadlockWatchdog, ClockAwareStuckBudgetStillTripsWhenSimulationFreezes) {
  // Clock awareness must not disable the detector: a virtual clock that
  // never advances (a wedged simulation) plus a long-parked wait is exactly
  // the stall the stuck budget exists for.
  time::VirtualClock clock;  // no sources, no deadlines: now() is frozen
  diag::WatchdogOptions opts;
  opts.budget = 30s;
  opts.poll = 10ms;
  opts.stuck_wait_budget = 100ms;
  opts.clock = &clock;
  opts.name = "vclock-frozen";
  opts.dump_to_stderr = false;
  std::atomic<int> stalls_seen{0};
  opts.on_stall = [&](const diag::Dump&) { stalls_seen.fetch_add(1); };
  diag::DeadlockWatchdog dog(opts);

  diag::ScopedWait wait(diag::WaitKind::kExternal, nullptr, "wedged", 0, 0, 0);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (stalls_seen.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(stalls_seen.load(), 1) << "frozen virtual clock + parked wait never tripped";
  EXPECT_GE(dog.stalls(), 1u);
}

}  // namespace
}  // namespace samoa
