// Unit tests for the concurrency-control building blocks: VersionGate
// (counters, waits, deferred upgrades), RoutingGraph (closure and
// reachability), and the trace formatting utilities.
#include <gtest/gtest.h>

#include <thread>

#include "cc/routing_graph.hpp"
#include "cc/version_gate.hpp"
#include "core/stack.hpp"
#include "core/trace.hpp"
#include "diag/wait_registry.hpp"
#include "util/sync.hpp"

namespace samoa {
namespace {

TEST(VersionGate, AdmitAccumulates) {
  VersionGate gate;
  EXPECT_EQ(gate.admit(1), 1u);
  EXPECT_EQ(gate.admit(1), 2u);
  EXPECT_EQ(gate.admit(5), 7u);
  EXPECT_EQ(gate.lv(), 0u);
}

TEST(VersionGate, WaitExactFastPath) {
  VersionGate gate;
  CCStats stats;
  gate.wait_exact(0, stats);  // lv == 0 already
  EXPECT_EQ(stats.gate_waits.value(), 0u);  // no blocking happened
}

TEST(VersionGate, WaitExactBlocksUntilUpgrade) {
  VersionGate gate;
  CCStats stats;
  OneShotEvent passed;
  std::thread waiter([&] {
    gate.wait_exact(1, stats);
    passed.set();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.is_set());
  gate.set_lv(1);
  passed.wait();
  waiter.join();
  EXPECT_EQ(stats.gate_waits.value(), 1u);
  EXPECT_GT(stats.gate_wait_time.count(), 0u);
}

TEST(VersionGate, WaitWindowSemantics) {
  VersionGate gate;
  CCStats stats;
  gate.wait_window(0, 2, stats);  // 0 <= 0 < 2 immediately
  gate.set_lv(1);
  gate.wait_window(0, 2, stats);  // 0 <= 1 < 2
  OneShotEvent passed;
  std::thread waiter([&] {
    gate.wait_window(3, 5, stats);
    passed.set();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(passed.is_set());
  gate.set_lv(3);
  passed.wait();
  waiter.join();
}

TEST(VersionGate, IncrementLv) {
  VersionGate gate;
  gate.increment_lv();
  gate.increment_lv();
  EXPECT_EQ(gate.lv(), 2u);
}

TEST(VersionGate, DowngradeThrows) {
  VersionGate gate;
  gate.set_lv(5);
  EXPECT_THROW(gate.set_lv(3), std::logic_error);
}

TEST(VersionGate, ScheduleSetFiresImmediatelyWhenDue) {
  VersionGate gate;
  gate.set_lv(2);
  gate.schedule_set(2, 3);  // lv == trigger -> applied now
  EXPECT_EQ(gate.lv(), 3u);
}

TEST(VersionGate, ScheduleSetDefersUntilTrigger) {
  VersionGate gate;
  gate.schedule_set(2, 3);
  EXPECT_EQ(gate.lv(), 0u);
  gate.set_lv(1);
  EXPECT_EQ(gate.lv(), 1u);
  gate.set_lv(2);  // reaches the trigger -> chained upgrade to 3
  EXPECT_EQ(gate.lv(), 3u);
}

TEST(VersionGate, ScheduleSetChains) {
  VersionGate gate;
  gate.schedule_set(1, 2);
  gate.schedule_set(2, 3);
  gate.schedule_set(3, 4);
  gate.set_lv(1);  // cascades 1 -> 2 -> 3 -> 4
  EXPECT_EQ(gate.lv(), 4u);
}

TEST(VersionGate, StaleScheduleIsIgnored) {
  VersionGate gate;
  gate.set_lv(5);
  gate.schedule_set(2, 3);  // trigger already passed
  EXPECT_EQ(gate.lv(), 5u);
}

TEST(VersionGate, DeferredUpgradeWakesWaiters) {
  VersionGate gate;
  CCStats stats;
  gate.schedule_set(1, 2);
  OneShotEvent passed;
  std::thread waiter([&] {
    gate.wait_exact(2, stats);  // waits for lv == 2
    passed.set();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.set_lv(1);  // deferred takes it to 2
  passed.wait();
  waiter.join();
}

TEST(VersionGate, FastPublishSkipsLockWhenNobodyParked) {
  VersionGate gate;
  gate.admit(1);
  gate.set_lv(1);  // nobody parked, nothing deferred -> lock-free publish
  gate.increment_lv();
  EXPECT_EQ(gate.fast_publishes(), 2u);
  EXPECT_EQ(gate.slow_publishes(), 0u);
}

TEST(VersionGate, SlowPublishTakenWhenWaiterParked) {
  VersionGate gate;
  CCStats stats;
  OneShotEvent passed;
  std::thread waiter([&] {
    gate.wait_exact(1, stats);
    passed.set();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.set_lv(1);
  passed.wait();
  waiter.join();
  EXPECT_EQ(gate.slow_publishes(), 1u);
}

TEST(VersionGate, CancelWhileParkedUnwindsWithException) {
  VersionGate gate;
  CCStats stats;
  OneShotEvent cancelled_seen;
  std::thread waiter([&] {
    diag::ScopedComputation as_comp(77);
    try {
      gate.wait_exact(5, stats);
    } catch (const WaitCancelled&) {
      cancelled_seen.set();
    }
  });
  // Wait until the thread is actually parked before revoking it.
  while (diag::WaitRegistry::instance().wait_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(gate.cancel_waiters(77), 1u);
  cancelled_seen.wait();
  waiter.join();
}

TEST(VersionGate, CancelledWaiterLeavesNoStaleAccounting) {
  // Regression: a waiter cancelled mid-park used to stay hooked in the
  // waiter lists, so later publishes notified (and counted) the stale
  // entry — wakeups_delivered() drifted past the number of real parks.
  VersionGate gate;
  CCStats stats;
  OneShotEvent window_cancelled;
  std::thread parked_window([&] {
    diag::ScopedComputation as_comp(88);
    try {
      gate.wait_window(3, 5, stats);
    } catch (const WaitCancelled&) {
      window_cancelled.set();
    }
  });
  while (diag::WaitRegistry::instance().wait_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(gate.cancel_waiters(88), 1u);
  window_cancelled.wait();
  parked_window.join();
  // Publish straight through the cancelled waiter's window: nothing is
  // parked any more, so no wakeup may be delivered or counted.
  gate.set_lv(3);
  gate.set_lv(4);
  EXPECT_EQ(gate.wakeups_delivered(), 0u);
  // Cancelling a computation with no parked waits is a no-op.
  EXPECT_EQ(gate.cancel_waiters(88), 0u);
}

TEST(VersionGate, WakeupCountedOncePerParkAcrossDeferredChain) {
  // A window waiter notified at several intermediate lv values of one
  // deferred chain still counts as a single delivered wakeup: the bound
  // pinned here is what keeps the publish path O(1) in the backlog.
  VersionGate gate;
  CCStats stats;
  gate.schedule_set(1, 2);
  gate.schedule_set(2, 3);
  OneShotEvent passed;
  std::thread waiter([&] {
    gate.wait_window(1, 10, stats);
    passed.set();
  });
  while (diag::WaitRegistry::instance().wait_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.set_lv(1);  // chain: 1 -> 2 -> 3, each landing inside the window
  passed.wait();
  waiter.join();
  EXPECT_EQ(gate.lv(), 3u);
  EXPECT_EQ(gate.wakeups_delivered(), 1u);
}

class ThreeMp : public Microprotocol {
 public:
  explicit ThreeMp(std::string name) : Microprotocol(std::move(name)) {
    a = &register_handler("a", [](Context&, const Message&) {});
    b = &register_handler("b", [](Context&, const Message&) {});
  }
  const Handler *a, *b;
};

struct GraphFixture {
  Stack stack;
  ThreeMp *x, *y, *z;

  GraphFixture() {
    x = &stack.emplace<ThreeMp>("x");
    y = &stack.emplace<ThreeMp>("y");
    z = &stack.emplace<ThreeMp>("z");
  }

  RoutingGraph build(const RouteSpec& spec) {
    auto iso = Isolation::route(spec);
    iso.resolve_route(stack);
    return RoutingGraph(iso.route_spec(), iso.route_owners());
  }
};

TEST(RoutingGraph, NodesEntriesAndOwners) {
  GraphFixture f;
  auto g = f.build(RouteSpec{}.entry(*f.x->a).edge(*f.x->a, *f.y->a));
  EXPECT_TRUE(g.has_node(f.x->a->id()));
  EXPECT_TRUE(g.has_node(f.y->a->id()));
  EXPECT_FALSE(g.has_node(f.z->a->id()));
  EXPECT_TRUE(g.is_entry(f.x->a->id()));
  EXPECT_FALSE(g.is_entry(f.y->a->id()));
  EXPECT_EQ(g.owner(f.x->a->id()), f.x->id());
  EXPECT_EQ(g.microprotocols().size(), 2u);
}

TEST(RoutingGraph, TransitiveClosure) {
  GraphFixture f;
  auto g = f.build(RouteSpec{}
                       .entry(*f.x->a)
                       .edge(*f.x->a, *f.y->a)
                       .edge(*f.y->a, *f.z->a));
  EXPECT_TRUE(g.has_path(f.x->a->id(), f.y->a->id()));
  EXPECT_TRUE(g.has_path(f.x->a->id(), f.z->a->id()));  // transitive
  EXPECT_TRUE(g.has_path(f.y->a->id(), f.z->a->id()));
  EXPECT_FALSE(g.has_path(f.z->a->id(), f.x->a->id()));
  EXPECT_FALSE(g.has_path(f.y->a->id(), f.x->a->id()));
}

TEST(RoutingGraph, SelfPathOnlyWithCycle) {
  GraphFixture f;
  auto acyclic = f.build(RouteSpec{}.entry(*f.x->a).edge(*f.x->a, *f.y->a));
  EXPECT_FALSE(acyclic.has_path(f.x->a->id(), f.x->a->id()));
  auto cyclic = f.build(
      RouteSpec{}.entry(*f.x->a).edge(*f.x->a, *f.y->a).edge(*f.y->a, *f.x->a));
  EXPECT_TRUE(cyclic.has_path(f.x->a->id(), f.x->a->id()));
}

TEST(RoutingGraph, ReachabilityFromSources) {
  GraphFixture f;
  auto g = f.build(RouteSpec{}
                       .entry(*f.x->a)
                       .edge(*f.x->a, *f.y->a)
                       .edge(*f.y->a, *f.z->a));
  auto from_y = g.reachable_from({f.y->a->id()});
  EXPECT_TRUE(from_y.contains(f.y->a->id()));  // sources included
  EXPECT_TRUE(from_y.contains(f.z->a->id()));
  EXPECT_FALSE(from_y.contains(f.x->a->id()));
  auto from_root = g.reachable_from_root();
  EXPECT_EQ(from_root.size(), 3u);
  EXPECT_TRUE(g.reachable_from({}).empty());
}

TEST(RoutingGraph, HandlersGroupedByMicroprotocol) {
  GraphFixture f;
  auto g = f.build(RouteSpec{}
                       .entry(*f.x->a)
                       .edge(*f.x->a, *f.x->b)
                       .edge(*f.x->b, *f.y->a));
  EXPECT_EQ(g.handlers_of(f.x->id()).size(), 2u);
  EXPECT_EQ(g.handlers_of(f.y->id()).size(), 1u);
}

TEST(RoutingGraph, UnresolvedOwnersThrow) {
  GraphFixture f;
  RouteSpec spec = RouteSpec{}.entry(*f.x->a);
  std::unordered_map<HandlerId, MicroprotocolId> empty;
  EXPECT_THROW(RoutingGraph(spec, empty), ConfigError);
}

TEST(Trace, PhaseNames) {
  EXPECT_STREQ(to_string(TracePhase::kIssue), "issue");
  EXPECT_STREQ(to_string(TracePhase::kStart), "start");
  EXPECT_STREQ(to_string(TracePhase::kEnd), "end");
  EXPECT_STREQ(to_string(TracePhase::kSpawn), "spawn");
  EXPECT_STREQ(to_string(TracePhase::kDone), "done");
}

TEST(Trace, FormatListsStartsOnly) {
  TraceRecorder tr;
  tr.record(TracePhase::kSpawn, ComputationId{1}, {}, {});
  tr.record(TracePhase::kIssue, ComputationId{1}, MicroprotocolId{2}, HandlerId{3});
  tr.record(TracePhase::kStart, ComputationId{1}, MicroprotocolId{2}, HandlerId{3});
  tr.record(TracePhase::kEnd, ComputationId{1}, MicroprotocolId{2}, HandlerId{3});
  const auto s = TraceRecorder::format(tr.snapshot());
  EXPECT_EQ(s, "((k1, h3))");
}

TEST(Trace, ClearResetsSequence) {
  TraceRecorder tr;
  tr.record(TracePhase::kSpawn, ComputationId{1}, {}, {});
  tr.clear();
  EXPECT_TRUE(tr.snapshot().empty());
  tr.record(TracePhase::kSpawn, ComputationId{2}, {}, {});
  EXPECT_EQ(tr.snapshot()[0].seq, 0u);
}

}  // namespace
}  // namespace samoa
