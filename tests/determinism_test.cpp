// Deterministic-simulation regression tests.
//
// Under a time::VirtualClock, a run of the network substrate — and of the
// full group-communication fleet — must be a pure function of its seed:
// same seed ⇒ byte-identical delivery traces, timer firing sequences and
// SimNetwork stats. These tests replay scenarios twice per seed and
// compare everything; they are the harness a timing-race fix is validated
// against.
#include <gtest/gtest.h>

#include <ios>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/sim_network.hpp"
#include "net/timer_service.hpp"
#include "test_support.hpp"
#include "time/clock.hpp"
#include "util/sync.hpp"
#include "virtual_fleet.hpp"

namespace samoa::net {
namespace {

using samoa::testing::datagram;
using samoa::testing::datagram_value;
using time::Pin;
using time::VirtualClock;

long virtual_us(const time::ClockSource& clock) {
  return static_cast<long>(std::chrono::duration_cast<std::chrono::microseconds>(
                               clock.now().time_since_epoch())
                               .count());
}

// --- Network + timer trace reproducibility -------------------------------

struct SimTrace {
  std::vector<std::string> events;  // "<t_us> site<i> <- site<from> hops=<n>"
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timer_fires = 0;

  bool operator==(const SimTrace&) const = default;
};

// A 4-site relay mesh with jitter and loss, driven by scripted injections,
// a transient partition and a crash. Every delivery with hops left relays
// to the next site, so cascades interleave with fresh injections.
SimTrace run_sim(std::uint64_t seed) {
  using namespace std::chrono;
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = microseconds(100),
                             .jitter = microseconds(200),
                             .drop_probability = 0.1},
                 seed, &clock);
  TimerService timers(&clock);

  SimTrace trace;
  std::mutex mu;
  constexpr int kSites = 4;
  std::vector<SiteId> sites(kSites);
  for (int i = 0; i < kSites; ++i) {
    sites[i] = net.add_site([&, i](const Packet& p) {
      const int hops = datagram_value(p.payload);
      {
        std::unique_lock lock(mu);
        trace.events.push_back(std::to_string(virtual_us(clock)) + " site" + std::to_string(i) +
                               " <- site" + std::to_string(p.from.value()) +
                               " hops=" + std::to_string(hops));
      }
      if (hops > 0) net.send(sites[i], sites[(i + 1) % kSites], datagram(hops - 1));
    });
  }

  OneShotEvent horizon;
  {
    Pin setup(clock);
    for (int k = 0; k < 10; ++k) {
      timers.schedule(microseconds(100 + 500 * k), [&, k] {
        net.send(sites[k % kSites], sites[(k + 1) % kSites], datagram(3));
      });
    }
    timers.schedule(microseconds(2000),
                    [&] { net.set_partitioned(sites[0], sites[1], true); });
    timers.schedule(microseconds(4000),
                    [&] { net.set_partitioned(sites[0], sites[1], false); });
    timers.schedule(microseconds(5000), [&] { net.crash(sites[3]); });
    timers.schedule(microseconds(20000), [&] { horizon.set(); });
  }
  horizon.wait();
  net.drain();

  std::unique_lock lock(mu);
  trace.sent = net.stats().sent.value();
  trace.delivered = net.stats().delivered.value();
  trace.dropped = net.stats().dropped.value();
  trace.timer_fires = timers.fired_count();
  return trace;
}

TEST(Determinism, NetTimerTraceReproducible) {
  for (const std::uint64_t seed : {1ull, 99ull, 31337ull}) {
    const SimTrace a = run_sim(seed);
    const SimTrace b = run_sim(seed);
    EXPECT_EQ(a.events, b.events) << "seed " << seed << ": delivery trace diverged";
    EXPECT_EQ(a.sent, b.sent) << "seed " << seed;
    EXPECT_EQ(a.delivered, b.delivered) << "seed " << seed;
    EXPECT_EQ(a.dropped, b.dropped) << "seed " << seed;
    EXPECT_EQ(a.timer_fires, b.timer_fires) << "seed " << seed;
    EXPECT_FALSE(a.events.empty());
  }
  // Different seeds give different jitter/loss draws — sanity that the
  // trace actually depends on the seed.
  EXPECT_NE(run_sim(1).events, run_sim(99).events);
}

// --- RNG stream contract across fault states -----------------------------

// Every send consumes its link's RNG draws whether or not the packet is
// dropped for a crash/partition/unknown destination. Consequence: the
// delivery timing of *unrelated* traffic is identical whatever the fault
// state of other destinations. (Regression: send() used to short-circuit
// the loss draw for blocked packets, shifting the whole stream.)
std::vector<long> run_with_faulty_peer(bool crash_c, std::uint64_t seed) {
  using namespace std::chrono;
  VirtualClock clock;
  SimNetwork net(LinkOptions{.base_latency = microseconds(100),
                             .jitter = microseconds(1000),
                             .drop_probability = 0.5},
                 seed, &clock);
  std::vector<long> times;
  std::mutex mu;
  SiteId a = net.add_site([](const Packet&) {});
  SiteId b = net.add_site([&](const Packet&) {
    std::unique_lock lock(mu);
    times.push_back(virtual_us(clock));
  });
  SiteId c = net.add_site([](const Packet&) {});
  if (crash_c) net.crash(c);
  {
    // Pin while injecting: every send must be stamped at the same virtual
    // instant, or delivery timing depends on the arming race.
    Pin inject(clock);
    net.send(a, c, datagram(0));  // consumes draws regardless of c's fate
    for (int i = 0; i < 50; ++i) net.send(a, b, datagram(i));
  }
  net.drain();
  std::unique_lock lock(mu);
  return times;
}

TEST(Determinism, RngStreamAlignedAcrossFaultStates) {
  const auto healthy = run_with_faulty_peer(false, 99);
  const auto crashed = run_with_faulty_peer(true, 99);
  EXPECT_EQ(healthy, crashed)
      << "the RNG stream diverged based on a peer's crash state";
  EXPECT_FALSE(healthy.empty());
}

}  // namespace
}  // namespace samoa::net

namespace samoa::gc {
namespace {

// --- Full-fleet determinism ----------------------------------------------

TEST(Determinism, GcFleetSeedSweepReplaysIdentically) {
  for (const std::uint64_t seed : {1ull, 17ull}) {
    const auto a = testing::run_chaos_fleet(seed);
    const auto b = testing::run_chaos_fleet(seed);
    ASSERT_TRUE(a.converged) << "seed " << seed;
    ASSERT_TRUE(b.converged) << "seed " << seed;
    EXPECT_EQ(a.converged_at_us, b.converged_at_us) << "seed " << seed;
    EXPECT_EQ(a.net_sent, b.net_sent) << "seed " << seed;
    EXPECT_EQ(a.net_delivered, b.net_delivered) << "seed " << seed;
    EXPECT_EQ(a.net_dropped, b.net_dropped) << "seed " << seed;
    ASSERT_EQ(a.adelivered.size(), b.adelivered.size());
    for (std::size_t i = 0; i < a.adelivered.size(); ++i) {
      ASSERT_EQ(a.adelivered[i].size(), b.adelivered[i].size())
          << "seed " << seed << " site " << i;
      for (std::size_t j = 0; j < a.adelivered[i].size(); ++j) {
        EXPECT_EQ(a.adelivered[i][j].id, b.adelivered[i][j].id)
            << "seed " << seed << " site " << i << " position " << j;
        EXPECT_EQ(a.adelivered[i][j].data, b.adelivered[i][j].data)
            << "seed " << seed << " site " << i << " position " << j;
      }
    }
    EXPECT_EQ(a.cdelivered, b.cdelivered) << "seed " << seed;
  }
}

// --- Crash/recovery fleet determinism ------------------------------------

// Two full crash → evict → restart → rejoin cycles must be a pure function
// of the seed: byte-identical view sequences, per-incarnation delivery
// traces, retransmission counts and chaos-engine logs across replays.
TEST(Determinism, RecoveryFleetReplaysIdentically) {
  // Golden event-stream hashes of the rejoin path, libstdc++-specific for
  // the same reason as the churn goldens below.
#ifdef __GLIBCXX__
  const std::map<std::uint64_t, std::uint64_t> golden = {
      {1ull, 0xbc62016a868e9c29ull},
      {17ull, 0x808ab7a054696147ull},
  };
#endif
  for (const std::uint64_t seed : {1ull, 17ull}) {
    const auto a = testing::run_recovery_fleet(seed);
    const auto b = testing::run_recovery_fleet(seed);
    ASSERT_TRUE(a.converged) << "seed " << seed;
    ASSERT_TRUE(b.converged) << "seed " << seed;
    EXPECT_EQ(a.converged_at_us, b.converged_at_us) << "seed " << seed;
    EXPECT_EQ(a.event_hash, b.event_hash) << "seed " << seed << ": event streams diverged";
#ifdef __GLIBCXX__
    EXPECT_EQ(a.event_hash, golden.at(seed))
        << "seed " << seed << ": delivery order changed vs the golden pin; actual hash is 0x"
        << std::hex << a.event_hash
        << ". If the change is intentional, re-run and update the literal.";
#endif
    EXPECT_EQ(a.trace_lines, b.trace_lines) << "seed " << seed << ": delivery traces diverged";
    EXPECT_EQ(a.view_lines, b.view_lines) << "seed " << seed << ": view sequences diverged";
    EXPECT_EQ(a.retransmissions, b.retransmissions)
        << "seed " << seed << ": retransmission counts diverged";
    EXPECT_EQ(a.retrans_to_evicted_probe1, b.retrans_to_evicted_probe1) << "seed " << seed;
    EXPECT_EQ(a.retrans_to_evicted_probe2, b.retrans_to_evicted_probe2) << "seed " << seed;
    EXPECT_EQ(a.chaos_log, b.chaos_log) << "seed " << seed << ": fault injection diverged";
    EXPECT_EQ(a.net_sent, b.net_sent) << "seed " << seed;
    EXPECT_EQ(a.net_delivered, b.net_delivered) << "seed " << seed;
    EXPECT_EQ(a.net_dropped, b.net_dropped) << "seed " << seed;
    EXPECT_EQ(a.rejoin4_first_delivery_us, b.rejoin4_first_delivery_us) << "seed " << seed;
    EXPECT_FALSE(a.trace_lines.empty());
  }
}

// --- Churn fleet determinism ---------------------------------------------

// The SWIM churn scenario — sharded-lane network, randomized probe order,
// gossip buffers, flapping links, an island partition, a mass crash and
// scripted evictions — must replay byte-identically: the per-lane queues
// merge to exactly the global (deliver_at, seq) order and every protocol
// RNG is seeded, so two same-seed runs may not diverge in any observable.
TEST(Determinism, ChurnFleetReplaysIdentically) {
  // Golden packet-level event-stream hashes (FNV-1a over SimNetwork's
  // delivery/drop/control event lines, in execution order). These pin that
  // with exploration disabled — no DeliveryHook installed — the delivery
  // order is bit-identical to what it was before the hook seam existed:
  // any change to the (deliver_at, seq) merge, the lane claim protocol or
  // the per-send RNG draw discipline shifts the hash. The literals are
  // libstdc++-specific (jitter draws go through std::uniform_int_distribution,
  // whose output is implementation-defined), so other stdlibs only check
  // replay equality.
#ifdef __GLIBCXX__
  const std::map<std::uint64_t, std::uint64_t> golden = {
      {1ull, 0xc2bcfa897d171984ull},
      {17ull, 0xecde422c8cf44cc8ull},
  };
#endif
  for (const std::uint64_t seed : {1ull, 17ull}) {
    testing::ChurnConfig cfg;
    cfg.sites = 30;
    cfg.seed = seed;
    const auto a = testing::run_churn_fleet(cfg);
    const auto b = testing::run_churn_fleet(cfg);
    ASSERT_TRUE(a.converged) << "seed " << seed;
    ASSERT_TRUE(b.converged) << "seed " << seed;
    EXPECT_EQ(a.converged_at_us, b.converged_at_us) << "seed " << seed;
    EXPECT_EQ(a.event_hash, b.event_hash) << "seed " << seed << ": event streams diverged";
#ifdef __GLIBCXX__
    EXPECT_EQ(a.event_hash, golden.at(seed))
        << "seed " << seed << ": delivery order changed vs the golden pin; actual hash is 0x"
        << std::hex << a.event_hash
        << ". If the change is intentional, re-run and update the literal.";
#endif
    EXPECT_EQ(a.trace_lines, b.trace_lines) << "seed " << seed << ": delivery traces diverged";
    EXPECT_EQ(a.view_lines, b.view_lines) << "seed " << seed << ": view sequences diverged";
    EXPECT_EQ(a.chaos_log, b.chaos_log) << "seed " << seed << ": fault injection diverged";
    EXPECT_EQ(a.first_suspicion_us, b.first_suspicion_us) << "seed " << seed;
    EXPECT_EQ(a.all_suspected_us, b.all_suspected_us) << "seed " << seed;
    EXPECT_EQ(a.false_positive_pairs, b.false_positive_pairs) << "seed " << seed;
    EXPECT_EQ(a.suspicions, b.suspicions) << "seed " << seed;
    EXPECT_EQ(a.refutations, b.refutations) << "seed " << seed;
    EXPECT_EQ(a.probes_sent, b.probes_sent) << "seed " << seed;
    EXPECT_EQ(a.ping_reqs_sent, b.ping_reqs_sent) << "seed " << seed;
    EXPECT_EQ(a.updates_piggybacked, b.updates_piggybacked) << "seed " << seed;
    EXPECT_EQ(a.net_sent, b.net_sent) << "seed " << seed;
    EXPECT_EQ(a.net_delivered, b.net_delivered) << "seed " << seed;
    EXPECT_EQ(a.net_dropped, b.net_dropped) << "seed " << seed;
    EXPECT_FALSE(a.trace_lines.empty());
  }
  // Seed sensitivity: the randomized probe schedule must actually depend
  // on the seed (otherwise the determinism above proves nothing).
  testing::ChurnConfig c1;
  c1.sites = 30;
  c1.seed = 1;
  testing::ChurnConfig c2 = c1;
  c2.seed = 17;
  EXPECT_NE(testing::run_churn_fleet(c1).net_sent, testing::run_churn_fleet(c2).net_sent);
}

}  // namespace
}  // namespace samoa::gc
