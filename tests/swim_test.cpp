// Component-level tests of the SWIM gossip failure detector on small
// clusters: direct probe/ack keeps a healthy fleet quiet, indirect
// ping-req probing masks a dead link, a crashed site is suspected and then
// confirmed faulty, a wrongly accused site refutes with a bumped
// incarnation, and view changes prune/seed the member table. The cells run
// GroupNode stacks with detector_impl = kSwim on the wall clock (same
// idiom as gc_component_test), with timings stretched under sanitizers —
// except the healthy-fleet and dissemination cells, which run on a
// time::VirtualClock so their ack deadlines are simulated time that no
// host stall can expire.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gc/group_node.hpp"
#include "time/clock.hpp"
#include "util/sync.hpp"

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

namespace samoa::gc {
namespace {

using net::LinkOptions;
using net::SimNetwork;

// Wall-clock cells: sanitizer-slowed handlers need proportionally slower
// protocol periods or probe deadlines misfire on healthy links.
constexpr int kSlow = SAMOA_UNDER_TSAN ? 10 : 1;

template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout = std::chrono::milliseconds(20000)) {
  const auto deadline = Clock::now() + timeout * kSlow;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

GcOptions swim_options() {
  GcOptions opts;
  opts.detector_impl = DetectorImpl::kSwim;
  opts.swim_probe_interval = std::chrono::microseconds(2000) * kSlow;
  opts.swim_ack_timeout = std::chrono::microseconds(600) * kSlow;
  opts.retransmit_interval = std::chrono::microseconds(2000) * kSlow;
  opts.retransmit_timeout = std::chrono::microseconds(3000) * kSlow;
  opts.cs_retry_interval = std::chrono::microseconds(5000) * kSlow;
  opts.cs_retry_timeout = std::chrono::microseconds(8000) * kSlow;
  return opts;
}

struct SwimFleet {
  SimNetwork net;
  std::vector<std::unique_ptr<GroupNode>> nodes;

  explicit SwimFleet(int n, GcOptions opts = swim_options(),
                     LinkOptions links = LinkOptions{.base_latency =
                                                         std::chrono::microseconds(80)})
      : net(links, 7) {
    for (int i = 0; i < n; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
    std::vector<SiteId> members;
    for (auto& node : nodes) members.push_back(node->id());
    for (auto& node : nodes) node->start(View(1, members));
  }
};

TEST(SwimComponent, DetectorSeamSelectsConfiguredImpl) {
  SwimFleet swim_fleet(2);
  EXPECT_EQ(&swim_fleet.nodes[0]->detector(),
            static_cast<Detector*>(&swim_fleet.nodes[0]->swim()));
  GcOptions hb;
  hb.detector_impl = DetectorImpl::kHeartbeat;
  SwimFleet hb_fleet(2, hb);
  EXPECT_EQ(&hb_fleet.nodes[0]->detector(), static_cast<Detector*>(&hb_fleet.nodes[0]->fd()));
}

/// The same fleet on one virtual clock. Its ack deadline and probe period
/// are simulated time, so they need no sanitizer stretch.
struct VirtualSwimFleet {
  time::VirtualClock clock;
  OneShotEvent stopped;  // outlives `script`, whose callback sets it
  SimNetwork net;
  net::TimerService script;
  std::vector<std::unique_ptr<GroupNode>> nodes;

  explicit VirtualSwimFleet(int n)
      : net(LinkOptions{.base_latency = std::chrono::microseconds(80)}, 7, &clock),
        script(&clock) {
    GcOptions opts;
    opts.clock = &clock;
    opts.detector_impl = DetectorImpl::kSwim;
    opts.swim_probe_interval = std::chrono::microseconds(2000);
    opts.swim_ack_timeout = std::chrono::microseconds(600);
    opts.retransmit_interval = std::chrono::microseconds(2000);
    opts.retransmit_timeout = std::chrono::microseconds(3000);
    opts.cs_retry_interval = std::chrono::microseconds(5000);
    opts.cs_retry_timeout = std::chrono::microseconds(8000);
    for (int i = 0; i < n; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  }

  /// Start every node in one view and run until `done` holds, checked
  /// every 500 virtual us; then stop every timer and quiesce. False if
  /// `done` never held within 60 wall seconds.
  template <typename Pred>
  bool run_until(Pred done) {
    {
      time::Pin setup(clock);
      std::vector<SiteId> members;
      for (auto& node : nodes) members.push_back(node->id());
      for (auto& node : nodes) node->start(View(1, members));
      script.schedule_periodic(std::chrono::microseconds(500), [&, done] {
        if (!done()) return;
        for (auto& node : nodes) node->stop_timers();
        script.cancel_all();
        stopped.set();
      });
    }
    const bool ok = stopped.wait_for(std::chrono::seconds(60));
    if (!ok) {
      for (auto& node : nodes) node->stop_timers();
      script.cancel_all();
    }
    std::uint64_t prev = ~std::uint64_t{0};
    for (;;) {
      net.drain();
      for (auto& node : nodes) node->drain();
      const std::uint64_t total = net.stats().sent.value() + net.stats().delivered.value();
      if (total == prev) break;
      prev = total;
    }
    return ok;
  }
};

TEST(SwimComponent, HealthyFleetProbesWithoutSuspicion) {
  VirtualSwimFleet f(4);
  // Let several protocol periods elapse.
  ASSERT_TRUE(f.run_until([&] { return f.nodes[0]->swim().periods() >= 5; }));
  for (auto& n : f.nodes) {
    EXPECT_GT(n->swim().probes_sent(), 0u);
    for (auto& m : f.nodes) {
      if (n == m) continue;
      EXPECT_FALSE(n->detector().is_suspected(m->id()))
          << n->id().value() << " suspects healthy " << m->id().value();
      EXPECT_EQ(n->swim().status_of(m->id()), SwimStatus::kAlive);
    }
    EXPECT_EQ(n->swim().status_of(n->id()), std::nullopt);  // never tracks self
  }
}

TEST(SwimComponent, DeadLinkMaskedByIndirectProbes) {
  // Cut node0 <-> node1 in both directions. Direct probes across the dead
  // link fail, but ping-reqs through either healthy proxy succeed, so
  // neither endpoint may harden a suspicion against the other.
  SwimFleet f(4);
  f.net.set_partitioned(f.nodes[0]->id(), f.nodes[1]->id(), true);
  // Wait until node0 actually exercised the indirect path against node1.
  ASSERT_TRUE(wait_until([&] { return f.nodes[0]->swim().ping_reqs_sent() > 0; }));
  ASSERT_TRUE(wait_until([&] { return f.nodes[0]->swim().periods() >= 10; }));
  // Proxies relayed acks on someone's behalf.
  std::uint64_t relayed = 0;
  for (auto& n : f.nodes) relayed += n->swim().acks_relayed();
  EXPECT_GT(relayed, 0u);
  // Any transient suspicion must have been refuted by the (live) target;
  // the settled state is alive on both sides of the dead link.
  EXPECT_TRUE(wait_until([&] {
    return !f.nodes[0]->detector().is_suspected(f.nodes[1]->id()) &&
           !f.nodes[1]->detector().is_suspected(f.nodes[0]->id());
  }));
}

TEST(SwimComponent, CrashedSiteSuspectedThenConfirmed) {
  SwimFleet f(4);
  ASSERT_TRUE(wait_until([&] { return f.nodes[0]->swim().periods() >= 2; }));
  f.nodes[3]->crash();
  const SiteId dead = f.nodes[3]->id();
  // Every survivor learns of the suspicion (locally or via gossip).
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(wait_until([&, i] { return f.nodes[i]->detector().is_suspected(dead); }))
        << "site " << i << " never suspected the crashed site";
  }
  // Un-refuted suspicion hardens into confirmed-faulty.
  EXPECT_TRUE(wait_until(
      [&] { return f.nodes[0]->swim().status_of(dead) == SwimStatus::kFaulty; }));
  EXPECT_GT(f.nodes[0]->swim().suspicions(), 0u);
  std::uint64_t confirmations = 0;
  for (int i = 0; i < 3; ++i) confirmations += f.nodes[i]->swim().confirmations();
  EXPECT_GT(confirmations, 0u);
}

TEST(SwimComponent, IsolatedSiteRefutesAfterHeal) {
  // Cut node3 off from everyone long enough to be confirmed faulty, then
  // heal. The survivors' refute hints tell node3 what they believe; node3
  // must bump its incarnation and the fleet must revoke.
  SwimFleet f(4);
  const SiteId victim = f.nodes[3]->id();
  ASSERT_TRUE(wait_until([&] { return f.nodes[0]->swim().periods() >= 2; }));
  for (int i = 0; i < 3; ++i) f.net.set_partitioned(f.nodes[i]->id(), victim, true);
  ASSERT_TRUE(wait_until(
      [&] { return f.nodes[0]->swim().status_of(victim) == SwimStatus::kFaulty; }));
  for (int i = 0; i < 3; ++i) f.net.set_partitioned(f.nodes[i]->id(), victim, false);
  EXPECT_TRUE(wait_until([&] { return f.nodes[3]->swim().refutations() > 0; }))
      << "the accused never refuted";
  EXPECT_GT(f.nodes[3]->swim().incarnation(), 0u);
  EXPECT_TRUE(wait_until([&] {
    for (int i = 0; i < 3; ++i) {
      if (f.nodes[i]->detector().is_suspected(victim)) return false;
    }
    return true;
  })) << "suspicion outlived the refutation";
  std::uint64_t revocations = 0;
  for (int i = 0; i < 3; ++i) revocations += f.nodes[i]->detector().suspicion_revocations();
  EXPECT_GT(revocations, 0u);
}

TEST(SwimComponent, ViewChangePrunesEvictedAndSeedsJoiner) {
  // Five stacks; the fifth starts outside the group and joins later.
  SwimFleet f(4);
  GcOptions opts = swim_options();
  auto joiner = std::make_unique<GroupNode>(f.net, opts);
  joiner->start(View(1, {joiner->id()}));

  // Evict a crashed member: the detector must drop it from its tables
  // (status_of -> nullopt) rather than keep gossiping about a non-member.
  f.nodes[2]->crash();
  const SiteId evicted = f.nodes[2]->id();
  ASSERT_TRUE(wait_until([&] { return f.nodes[0]->detector().is_suspected(evicted); }));
  f.nodes[0]->request_leave(evicted);
  EXPECT_TRUE(wait_until(
      [&] { return f.nodes[0]->swim().status_of(evicted) == std::nullopt; }));
  EXPECT_FALSE(f.nodes[0]->detector().is_suspected(evicted));

  // Join the newcomer: every old member seeds it Alive, and the joiner
  // (whose stack saw the whole group only at the ViewInstall) tracks the
  // old members — without ever having probed them yet.
  f.nodes[0]->request_join(joiner->id());
  EXPECT_TRUE(wait_until(
      [&] { return f.nodes[0]->swim().status_of(joiner->id()) == SwimStatus::kAlive; }));
  EXPECT_TRUE(wait_until(
      [&] { return joiner->swim().status_of(f.nodes[0]->id()) == SwimStatus::kAlive; }));
  EXPECT_FALSE(joiner->detector().is_suspected(f.nodes[0]->id()));
  joiner->stop_timers();
  joiner->drain();
}

TEST(SwimComponent, DisseminationPiggybacksOnProbeTraffic) {
  // A churn event (crash) must travel as piggybacked updates — the only
  // dissemination channel SWIM has — and the gossip budget must retransmit
  // it more than once.
  VirtualSwimFleet f(5);
  const SiteId dead = f.nodes[4]->id();
  bool crashed = false;
  // The script crashes site 4 once two periods have elapsed, then runs
  // until every survivor suspects it.
  ASSERT_TRUE(f.run_until([&] {
    if (!crashed) {
      if (f.nodes[0]->swim().periods() < 2) return false;
      f.nodes[4]->crash();
      crashed = true;
    }
    for (int i = 0; i < 4; ++i) {
      if (!f.nodes[i]->detector().is_suspected(dead)) return false;
    }
    return true;
  }));
  std::uint64_t piggybacked = 0;
  for (int i = 0; i < 4; ++i) piggybacked += f.nodes[i]->swim().updates_piggybacked();
  EXPECT_GT(piggybacked, 4u) << "suspicion spread without piggybacked updates?";
}

}  // namespace
}  // namespace samoa::gc
