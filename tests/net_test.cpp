// Unit tests for the network substrate: SimNetwork (latency, loss,
// partitions, crashes, detach, the local self-link, the exploration
// DeliveryHook's candidates and key stability) and TimerService.
//
// Most cases run on a time::VirtualClock: the clock's loop fires deadlines
// in virtual time, so the tests are deterministic and burn zero wall-clock
// time in sleeps. The lifecycle races at the bottom (detach, drain,
// cancel and destruction while a callback runs) run once on each clock,
// with short bounded sleeps: a callback blocks its clock's thread while
// the test thread acts on the service.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "explore/strategy.hpp"
#include "net/sim_network.hpp"
#include "net/timer_service.hpp"
#include "test_support.hpp"
#include "time/clock.hpp"
#include "util/sync.hpp"

namespace samoa::net {
namespace {

using samoa::testing::datagram;
using samoa::testing::datagram_value;
using time::Pin;
using time::VirtualClock;
using namespace std::chrono_literals;

/// Runs `body` once on the wall clock and once on a fresh VirtualClock.
template <typename Body>
void on_both_clocks(Body body) {
  {
    SCOPED_TRACE("wall clock");
    body(static_cast<time::ClockSource*>(nullptr));
  }
  {
    SCOPED_TRACE("virtual clock");
    VirtualClock clock;
    body(static_cast<time::ClockSource*>(&clock));
  }
}

TEST(SimNetwork, DeliversPacketToCallback) {
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(50)}, 1, &clock);
  std::atomic<int> got{0};
  SiteId a = net.add_site([&](const Packet&) {});
  SiteId b = net.add_site([&](const Packet& p) {
    EXPECT_EQ(p.from, a);
    EXPECT_EQ(datagram_value(p.payload), 42);
    got.fetch_add(1);
  });
  net.send(a, b, datagram(42));
  net.drain();
  EXPECT_EQ(got.load(), 1);
  EXPECT_EQ(net.stats().delivered.value(), 1u);
}

TEST(SimNetwork, DatagramArrivesByteForByte) {
  // The network never looks inside a payload: over the self-link and over
  // a peer link, the receiver gets exactly the bytes that were sent.
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = 50us, .jitter = 20us}, 1, &clock);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 300; ++i) bytes.push_back(static_cast<std::uint8_t>(255 - i));
  std::mutex mu;
  std::vector<Packet> got;
  const auto record = [&](const Packet& p) {
    std::unique_lock lock(mu);
    got.push_back(p);
  };
  const SiteId a = net.add_site(record);
  const SiteId b = net.add_site(record);
  net.send(a, a, bytes);
  net.send(a, b, bytes);
  net.drain();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].to, a);
  EXPECT_EQ(got[1].to, b);
  for (const Packet& p : got) {
    EXPECT_EQ(p.from, a);
    EXPECT_EQ(p.payload, bytes);
  }
}

TEST(SimNetwork, VirtualLatencyIsExact) {
  // Under virtual time the link latency is not a lower bound, it is the
  // exact delivery offset: the scheduler jumps now() to the deadline.
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(20000)}, 1, &clock);
  std::atomic<long> delivered_at_us{-1};
  SiteId a = net.add_site([](const Packet&) {});
  SiteId b = net.add_site([&](const Packet&) {
    delivered_at_us.store(std::chrono::duration_cast<std::chrono::microseconds>(
                              clock.now().time_since_epoch())
                              .count());
  });
  const auto start = clock.now();
  net.send(a, b, datagram(1));
  net.drain();
  const auto start_us =
      std::chrono::duration_cast<std::chrono::microseconds>(start.time_since_epoch()).count();
  EXPECT_EQ(delivered_at_us.load(), start_us + 20000);
}

TEST(SimNetwork, OrderPreservedOnOneLink) {
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(100)}, 1, &clock);
  std::vector<int> received;
  std::mutex mu;
  SiteId a = net.add_site([](const Packet&) {});
  SiteId b = net.add_site([&](const Packet& p) {
    std::unique_lock lock(mu);
    received.push_back(datagram_value(p.payload));
  });
  for (int i = 0; i < 20; ++i) net.send(a, b, datagram(i));
  net.drain();
  std::unique_lock lock(mu);
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(received[i], i);
}

TEST(SimNetwork, DropProbabilityLosesPackets) {
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(10),
                             .drop_probability = 0.5},
                 /*seed=*/7, &clock);
  std::atomic<int> got{0};
  SiteId a = net.add_site([](const Packet&) {});
  SiteId b = net.add_site([&](const Packet&) { got.fetch_add(1); });
  for (int i = 0; i < 200; ++i) net.send(a, b, datagram(i));
  net.drain();
  EXPECT_GT(got.load(), 50);
  EXPECT_LT(got.load(), 150);
  EXPECT_EQ(net.stats().dropped.value() + got.load(), 200u);
}

TEST(SimNetwork, PartitionBlocksBothDirections) {
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(10)}, 1, &clock);
  std::atomic<int> got_a{0}, got_b{0};
  SiteId a = net.add_site([&](const Packet&) { got_a.fetch_add(1); });
  SiteId b = net.add_site([&](const Packet&) { got_b.fetch_add(1); });
  net.set_partitioned(a, b, true);
  net.send(a, b, datagram(1));
  net.send(b, a, datagram(2));
  net.drain();
  EXPECT_EQ(got_a.load() + got_b.load(), 0);
  net.set_partitioned(a, b, false);
  net.send(a, b, datagram(3));
  net.drain();
  EXPECT_EQ(got_b.load(), 1);
}

TEST(SimNetwork, OnewayPartitionBlocksSingleDirection) {
  // Asymmetric cut: a -> b is dead while b -> a still delivers — the
  // failure mode where a site can talk but not hear (or vice versa).
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(10)}, 1, &clock);
  std::atomic<int> got_a{0}, got_b{0};
  SiteId a = net.add_site([&](const Packet&) { got_a.fetch_add(1); });
  SiteId b = net.add_site([&](const Packet&) { got_b.fetch_add(1); });
  net.set_partitioned_oneway(a, b, true);
  net.send(a, b, datagram(1));
  net.send(b, a, datagram(2));
  net.drain();
  EXPECT_EQ(got_b.load(), 0) << "cut direction delivered";
  EXPECT_EQ(got_a.load(), 1) << "healthy direction blocked";
  // Healing the cut direction restores it; the other was never affected.
  net.set_partitioned_oneway(a, b, false);
  net.send(a, b, datagram(3));
  net.drain();
  EXPECT_EQ(got_b.load(), 1);
}

TEST(SimNetwork, OnewayAndSymmetricPartitionsCompose) {
  // A symmetric partition heals as a unit even when a one-way cut of the
  // same pair came first: each primitive owns only its own direction(s).
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(10)}, 1, &clock);
  std::atomic<int> got_b{0};
  SiteId a = net.add_site([](const Packet&) {});
  SiteId b = net.add_site([&](const Packet&) { got_b.fetch_add(1); });
  net.set_partitioned_oneway(a, b, true);
  net.set_partitioned(a, b, true);
  net.set_partitioned(a, b, false);  // heals both directions, including a->b
  net.send(a, b, datagram(1));
  net.drain();
  EXPECT_EQ(got_b.load(), 1);
}

TEST(SimNetwork, CrashedSiteDropsTraffic) {
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(10)}, 1, &clock);
  std::atomic<int> got{0};
  SiteId a = net.add_site([](const Packet&) {});
  SiteId b = net.add_site([&](const Packet&) { got.fetch_add(1); });
  net.crash(b);
  EXPECT_TRUE(net.crashed(b));
  net.send(a, b, datagram(1));
  net.drain();
  EXPECT_EQ(got.load(), 0);
}

TEST(SimNetwork, PerLinkOverride) {
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(10)}, 1, &clock);
  std::atomic<int> got{0};
  SiteId a = net.add_site([](const Packet&) {});
  SiteId b = net.add_site([&](const Packet&) { got.fetch_add(1); });
  net.set_link(a, b, LinkOptions{.base_latency = std::chrono::microseconds(10),
                                 .drop_probability = 1.0});
  net.send(a, b, datagram(1));
  net.drain();
  EXPECT_EQ(got.load(), 0);
  net.set_link(a, b, LinkOptions{.base_latency = std::chrono::microseconds(10)});
  net.send(a, b, datagram(2));
  net.drain();
  EXPECT_EQ(got.load(), 1);
}

TEST(SimNetwork, UnknownDestinationCountsAsDrop) {
  VirtualClock clock;
  SimNetwork net({}, 1, &clock);
  SiteId a = net.add_site([](const Packet&) {});
  net.send(a, SiteId{99}, datagram(1));
  net.drain();
  EXPECT_EQ(net.stats().dropped.value(), 1u);
}

long at_us(Clock::time_point t) {
  return static_cast<long>(
      std::chrono::duration_cast<std::chrono::microseconds>(t.time_since_epoch()).count());
}

TEST(SimNetwork, SelfLinkIsLocal) {
  // A site's packets to itself are local, as on any host: due at their
  // send instant, never lost and drawing nothing from the network's RNG,
  // whatever the defaults say; set_link refuses to override them.
  {
    SCOPED_TRACE("every link drops");
    VirtualClock clock;
    SimNetwork net(LinkOptions{.base_latency = 100us, .drop_probability = 1.0}, 1, &clock);
    std::atomic<long> self_at{-1};
    std::atomic<int> peer_got{0};
    const SiteId a = net.add_site([&](const Packet&) { self_at = at_us(clock.now()); });
    const SiteId b = net.add_site([&](const Packet&) { peer_got.fetch_add(1); });
    long sent_at = 0;
    {
      Pin setup(clock);
      sent_at = at_us(clock.now());
      net.send(a, a, datagram(1));
      net.send(a, b, datagram(2));
    }
    net.drain();
    EXPECT_EQ(self_at.load(), sent_at);
    EXPECT_EQ(peer_got.load(), 0);
  }
  {
    SCOPED_TRACE("a self-link override is refused");
    VirtualClock clock;
    SimNetwork net(LinkOptions{.base_latency = 100us}, 1, &clock);
    std::atomic<long> self_at{-1};
    const SiteId a = net.add_site([&](const Packet&) { self_at = at_us(clock.now()); });
    EXPECT_THROW(
        net.set_link(a, a, LinkOptions{.base_latency = 5000us, .drop_probability = 1.0}),
        ConfigError);
    long sent_at = 0;
    {
      Pin setup(clock);
      sent_at = at_us(clock.now());
      net.send(a, a, datagram(1));
    }
    net.drain();
    EXPECT_EQ(self_at.load(), sent_at);
  }
  // With jitter and loss on the links between sites, self-sends between
  // the peer sends leave every peer packet's fate and delivery time as
  // they are without them.
  const auto peer_deliveries = [](bool with_self_sends) {
    VirtualClock clock;
    SimNetwork net(
        LinkOptions{.base_latency = 100us, .jitter = 200us, .drop_probability = 0.2}, 11, &clock);
    std::mutex mu;
    std::vector<std::pair<int, long>> got;  // (payload, delivery time)
    const SiteId a = net.add_site([](const Packet&) {});
    const SiteId b = net.add_site([&](const Packet& p) {
      std::unique_lock lock(mu);
      got.emplace_back(datagram_value(p.payload), at_us(clock.now()));
    });
    {
      Pin setup(clock);
      for (int i = 0; i < 100; ++i) {
        if (with_self_sends) net.send(a, a, datagram(-1));
        net.send(a, b, datagram(i));
      }
    }
    net.drain();
    std::sort(got.begin(), got.end());
    return got;
  };
  const auto without = peer_deliveries(false);
  EXPECT_GT(without.size(), 50u);
  EXPECT_LT(without.size(), 100u);
  EXPECT_EQ(peer_deliveries(true), without);
}

/// Picks one fixed index at every decision and records each decision's
/// keys.
class FixedPickHook : public DeliveryHook {
 public:
  explicit FixedPickHook(std::size_t pick) : pick_(pick) {}
  std::size_t choose(const std::vector<std::uint64_t>& keys) override {
    seen.push_back(keys);
    return pick_;
  }
  std::vector<std::vector<std::uint64_t>> seen;

 private:
  std::size_t pick_;
};

TEST(SimNetwork, HookChoosesAmongEachDestinationsEarliestDuePacket) {
  // x -> a, y -> a and x -> b fall due at one instant. The candidates are
  // one per destination, in (deliver_at, seq) order, and a's is its
  // earlier packet. Packets to one destination keep their order: once
  // the hook picks b, a's two go out in send order with no decision.
  const auto run = [](std::size_t pick) {
    VirtualClock clock;
    SimNetwork net(LinkOptions{.base_latency = 100us}, 1, &clock);
    std::vector<std::pair<std::uint64_t, int>> got;  // (destination, payload)
    const auto record = [&](const Packet& p) {
      got.emplace_back(p.to.value(), datagram_value(p.payload));
    };
    const SiteId x = net.add_site(record);
    const SiteId y = net.add_site(record);
    net.add_site(record);  // a, site 2
    net.add_site(record);  // b, site 3
    FixedPickHook hook(pick);
    net.set_delivery_hook(&hook);
    {
      Pin setup(clock);
      net.send(x, SiteId(2), datagram(1));
      net.send(y, SiteId(2), datagram(2));
      net.send(x, SiteId(3), datagram(3));
    }
    net.drain();
    return std::make_pair(hook.seen, got);
  };
  using Keys = std::vector<std::vector<std::uint64_t>>;
  using Got = std::vector<std::pair<std::uint64_t, int>>;
  const auto [picked_b_keys, picked_b] = run(1);
  EXPECT_EQ(picked_b_keys, (Keys{{2, 3}}));
  EXPECT_EQ(picked_b, (Got{{3, 3}, {2, 1}, {2, 2}}));
  const auto [picked_a_keys, picked_a] = run(0);
  EXPECT_EQ(picked_a_keys, (Keys{{2, 3}, {2, 3}}));
  EXPECT_EQ(picked_a, (Got{{2, 1}, {2, 2}, {3, 3}}));
}

/// Three sites relay a hop counter around jitter-free links, so each
/// round's packets to different sites fall due together and the hook
/// decides their order; `idle_sites` more sites are appended after them.
struct RelayRun {
  std::vector<std::string> log;
  std::uint64_t hash = 0;
};

RelayRun run_relay_rounds(DeliveryHook& hook, int idle_sites) {
  constexpr int kSites = 3;
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = 100us}, 7, &clock);
  net.enable_event_log(/*store_lines=*/true);
  net.set_delivery_hook(&hook);
  for (int i = 0; i < kSites; ++i) {
    net.add_site([&net, i](const Packet& p) {
      const int hops = datagram_value(p.payload);
      if (hops > 0) net.send(SiteId(i), SiteId((i + 1) % kSites), datagram(hops - 1));
    });
  }
  for (int i = 0; i < idle_sites; ++i) net.add_site([](const Packet&) {});
  {
    Pin setup(clock);
    for (int from = 0; from < kSites; ++from) {
      for (int to = 0; to < kSites; ++to) {
        if (from != to) net.send(SiteId(from), SiteId(to), datagram(3));
      }
    }
  }
  net.drain();
  return RelayRun{net.event_log(), net.event_hash()};
}

TEST(SimNetwork, ExploredTraceReplaysAfterIdleSitesAreAppended) {
  // Candidate keys are destination site ids: appending sites adds lanes
  // without shifting any existing key, so a trace recorded on 3 sites
  // replays bit-for-bit on 7.
  explore::RandomWalkStrategy walk(3);
  explore::ExploringDeliveryHook recorder(walk);
  const RelayRun recorded = run_relay_rounds(recorder, 0);
  ASSERT_GE(recorder.trace().size(), 3u) << "the workload must have decision points";

  explore::ReplayStrategy replay(recorder.trace());
  explore::ExploringDeliveryHook replayer(replay);
  const RelayRun replayed = run_relay_rounds(replayer, 4);
  EXPECT_FALSE(replay.diverged()) << recorder.trace().encode();
  EXPECT_EQ(replayer.trace(), recorder.trace());
  EXPECT_EQ(replayed.hash, recorded.hash);
  EXPECT_EQ(replayed.log, recorded.log);
}

TEST(TimerService, OneShotFires) {
  VirtualClock clock;
  TimerService timers(&clock);
  OneShotEvent fired;
  timers.schedule(std::chrono::microseconds(1000), [&] { fired.set(); });
  EXPECT_TRUE(fired.wait_for(std::chrono::milliseconds(5000)));
  EXPECT_EQ(timers.fired_count(), 1u);
}

TEST(TimerService, FiresInDeadlineOrder) {
  VirtualClock clock;
  TimerService timers(&clock);
  std::vector<int> order;
  std::mutex mu;
  std::latch fired(2);
  {
    // The pin keeps virtual time frozen until both timers are armed, so
    // the order is decided by the deadlines, not the arming race.
    Pin setup(clock);
    timers.schedule(std::chrono::microseconds(40000), [&] {
      std::unique_lock lock(mu);
      order.push_back(2);
      fired.count_down();
    });
    timers.schedule(std::chrono::microseconds(2000), [&] {
      std::unique_lock lock(mu);
      order.push_back(1);
      fired.count_down();
    });
  }
  fired.wait();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerService, PeriodicFiresRepeatedly) {
  VirtualClock clock;
  TimerService timers(&clock);
  std::atomic<int> count{0};
  OneShotEvent done, sentinel;
  {
    Pin setup(clock);
    timers.schedule_periodic(std::chrono::microseconds(2000), [&] {
      if (count.fetch_add(1) + 1 == 3) {
        // The running periodic timer cancels itself (as a script's last
        // callback does): the cancel must stick.
        timers.cancel_all();
        done.set();
      }
    });
  }
  EXPECT_TRUE(done.wait_for(std::chrono::milliseconds(5000)));
  {
    Pin fence(clock);
    timers.schedule(std::chrono::microseconds(50000), [&] { sentinel.set(); });
  }
  EXPECT_TRUE(sentinel.wait_for(std::chrono::milliseconds(5000)));
  EXPECT_EQ(count.load(), 3);  // exact: the cancel suppressed the re-arm
}

TEST(TimerService, CancelAllStopsEverything) {
  VirtualClock clock;
  TimerService timers(&clock);
  std::atomic<int> count{0};
  OneShotEvent sentinel;
  {
    Pin setup(clock);
    timers.schedule_periodic(std::chrono::microseconds(1000), [&] { count.fetch_add(1); });
    timers.schedule(std::chrono::microseconds(1000), [&] { count.fetch_add(1); });
    timers.cancel_all();
    timers.schedule(std::chrono::microseconds(10000), [&] { sentinel.set(); });
  }
  EXPECT_TRUE(sentinel.wait_for(std::chrono::milliseconds(5000)));
  EXPECT_EQ(count.load(), 0);
}

// --- Lifecycle races (on both clocks; see file header) ---

TEST(SimNetwork, DetachStopsCallbacksSafely) {
  on_both_clocks([](time::ClockSource* clock) {
    SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(50)}, 1, clock);
    std::atomic<int> got{0};
    SiteId a = net.add_site([](const Packet&) {});
    SiteId b = net.add_site([&](const Packet&) { got.fetch_add(1); });
    for (int i = 0; i < 10; ++i) net.send(a, b, datagram(i));
    net.detach(b);  // returns only when no callback for b is running
    const int at_detach = got.load();
    net.drain();
    EXPECT_EQ(got.load(), at_detach);  // nothing delivered after detach returned
  });
}

TEST(SimNetwork, DrainWaitsForInFlightDeliveryCallback) {
  on_both_clocks([](time::ClockSource* clock) {
    SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(10)}, 1, clock);
    OneShotEvent in_callback, release;
    std::atomic<int> c_got{0};
    SiteId b{}, c{};
    SiteId a = net.add_site([](const Packet&) {});
    b = net.add_site([&](const Packet&) {
      in_callback.set();
      release.wait();
      // The callback produces follow-up traffic *before* it returns — the
      // exact window in which a drain() keyed only on the queue leaks work.
      net.send(b, c, datagram(1));
    });
    c = net.add_site([&](const Packet&) { c_got.fetch_add(1); });

    net.send(a, b, datagram(0));
    in_callback.wait();  // b's callback is now running, queue is empty

    std::atomic<bool> drain_returned{false};
    std::thread drainer([&] {
      net.drain();
      drain_returned.store(true);
    });
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(drain_returned.load()) << "drain returned while a delivery callback was running";
    release.set();
    drainer.join();
    // drain() covered the callback's follow-up send too.
    EXPECT_EQ(c_got.load(), 1);
  });
}

TEST(SimNetwork, DestructionWaitsForARunningDeliveryThatSends) {
  on_both_clocks([](time::ClockSource* clock) {
    auto net = std::make_unique<SimNetwork>(
        LinkOptions{.base_latency = std::chrono::microseconds(10)}, 1, clock);
    SimNetwork* raw = net.get();
    OneShotEvent in_callback, release;
    std::atomic<int> a_got{0};
    SiteId a{}, b{};
    a = net->add_site([&](const Packet&) { a_got.fetch_add(1); });
    b = net->add_site([&](const Packet&) {
      in_callback.set();
      release.wait();
      raw->send(b, a, datagram(1));  // after destruction began
    });
    net->send(a, b, datagram(0));
    in_callback.wait();
    std::atomic<bool> destroyed{false};
    std::thread destroyer([&] {
      net.reset();
      destroyed.store(true);
    });
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(destroyed.load()) << "destructor returned while a delivery was running";
    release.set();
    destroyer.join();
    EXPECT_EQ(a_got.load(), 0) << "delivered after its destruction began";
  });
}

TEST(TimerService, CancelDuringPeriodicCallbackIsHonored) {
  on_both_clocks([](time::ClockSource* clock) {
    TimerService timers(clock);
    OneShotEvent in_callback, release;
    std::atomic<int> count{0};
    timers.schedule_periodic(std::chrono::microseconds(1000), [&] {
      if (count.fetch_add(1) == 0) {
        in_callback.set();
        release.wait();
      }
    });
    in_callback.wait();  // the callback is running; the entry is not queued
    timers.cancel_all();
    release.set();
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(count.load(), 1) << "periodic timer re-armed despite cancellation";
  });
}

TEST(TimerService, DestructionWaitsForARunningCallbackAndStopsFiring) {
  // A fleet torn down from the test thread does exactly this: each
  // GroupNode's TimerService is destroyed while one of its callbacks may
  // be running on the clock's thread, and that callback may still arm a
  // timer of its own service after the destruction began.
  on_both_clocks([](time::ClockSource* clock) {
    auto timers = std::make_unique<TimerService>(clock);
    TimerService* raw = timers.get();
    OneShotEvent in_callback, release;
    std::atomic<int> count{0};
    timers->schedule_periodic(std::chrono::microseconds(1000), [&] {
      if (count.fetch_add(1) == 0) {
        in_callback.set();
        release.wait();
        raw->schedule(std::chrono::microseconds(0), [&] { count.fetch_add(1); });
      }
    });
    in_callback.wait();
    std::atomic<bool> destroyed{false};
    std::thread destroyer([&] {
      timers.reset();
      destroyed.store(true);
    });
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(destroyed.load()) << "destructor returned while its callback was running";
    release.set();
    destroyer.join();
    EXPECT_EQ(count.load(), 1) << "fired again after its destruction began";
  });
}

}  // namespace
}  // namespace samoa::net
