// Chaos testing: the full group-communication fleet under randomized
// faults — message loss, transient partitions, one crash (minority), mixed
// traffic on all three broadcast channels — must still converge to
// identical totally-ordered histories, causal orders, and views.
//
// The scenario runs under a time::VirtualClock (see virtual_fleet.hpp):
// every fault and every message is scheduled at a fixed virtual time, so
// the sweep is reproducible per seed and spends no real time sleeping.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

#include "test_support.hpp"
#include "virtual_fleet.hpp"

namespace samoa::gc {
namespace {

using samoa::testing::datagram;
using testing::kFleetAbcasts;
using testing::kFleetCcasts;
using testing::kFleetSites;
using testing::run_chaos_fleet;

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, FleetConvergesUnderFaults) {
  const std::uint64_t seed = GetParam();
  const auto out = run_chaos_fleet(seed);
  ASSERT_TRUE(out.converged) << "seed " << seed << ": fleet did not converge under chaos "
                             << "within the virtual horizon";

  // Every surviving site converged on the abcast history...
  const auto& ref = out.adelivered[0];
  ASSERT_EQ(ref.size(), static_cast<std::size_t>(kFleetAbcasts));
  for (int i = 1; i < kFleetSites - 1; ++i) {
    const auto& got = out.adelivered[i];
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].id, ref[j].id)
          << "seed " << seed << ": site " << i << " diverged at " << j;
    }
  }

  // ...and on the causal stream, in the sender's order (single origin).
  for (int i = 0; i < kFleetSites - 1; ++i) {
    const auto& got = out.cdelivered[i];
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kFleetCcasts));
    for (int j = 0; j < kFleetCcasts; ++j) {
      EXPECT_EQ(got[j], std::string("c").append(std::to_string(j)))
          << "seed " << seed << ": causal order broken at site " << i;
    }
  }

  // Virtual time runs one computation at a time, inline: no gate can block.
  for (std::size_t i = 0; i < out.gate_waits.size(); ++i) {
    EXPECT_EQ(out.gate_waits[i], 0u) << "seed " << seed << ": site " << i;
  }
  // Every inferred declaration covered what its computation reached.
  ASSERT_EQ(out.failed_computations.size(), static_cast<std::size_t>(kFleetSites));
  for (std::size_t i = 0; i < out.failed_computations.size(); ++i) {
    EXPECT_EQ(out.failed_computations[i], 0u) << "seed " << seed << ": site " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Values(1u, 17u, 4242u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Crash/recovery chaos -------------------------------------------------
//
// Two full crash → evict → restart → rejoin cycles (one overlapping a
// partition-heal window, one under a loss burst), scripted by a FaultPlan
// on the chaos engine. Every incarnation's delivery trace must satisfy
// the virtual-synchrony checker, and retransmissions towards an evicted
// peer must stop growing after the view change.
class RecoverySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoverySweep, RejoinedFleetStaysVirtuallySynchronous) {
  const std::uint64_t seed = GetParam();
  const auto out = testing::run_recovery_fleet(seed);
  if (!out.converged) {
    for (const auto& line : out.trace_lines) std::printf("%s\n", line.c_str());
    for (const auto& line : out.view_lines) std::printf("%s\n", line.c_str());
  }
  ASSERT_TRUE(out.converged) << "seed " << seed
                             << ": recovery fleet did not converge within the virtual horizon";

  const auto report = verify::check_virtual_synchrony(out.traces);
  EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.describe();
  EXPECT_GE(report.incarnations_checked, 7u);  // 5 sites + 2 archived lifetimes
  EXPECT_EQ(report.reference_length, static_cast<std::size_t>(testing::kRecoveryMessages));

  // Bounded retransmission to the evicted site: the counter moved while
  // the dead member was still in the view, then froze after the change.
  EXPECT_GT(out.retrans_to_evicted_probe1, 0u)
      << "seed " << seed << ": no retransmissions towards the dead member before eviction";
  EXPECT_EQ(out.retrans_to_evicted_probe1, out.retrans_to_evicted_probe2)
      << "seed " << seed << ": retransmissions to the evicted peer kept growing";

  // Observability counters.
  EXPECT_EQ(out.net_recoveries, 2u);
  EXPECT_EQ(out.rejoins_completed, 2u);
  // The heartbeat detector suspects only a coordinator an open instance
  // waits on, so the partition and the crashes raise suspicions only where
  // a slot's coordinator sat across them. Whatever it suspected of a site
  // that is alive at the end, that site's next packet revoked.
  EXPECT_EQ(out.standing_suspicions, 0u)
      << "seed " << seed << ": a live member is still suspected at the end";
  EXPECT_GT(out.view_change_drops, 0u);
  EXPECT_GE(out.rejoin4_first_delivery_us, out.rejoin4_requested_us);
  for (std::size_t i = 0; i < out.gate_waits.size(); ++i) {
    EXPECT_EQ(out.gate_waits[i], 0u) << "seed " << seed << ": site " << i;
  }
  ASSERT_EQ(out.failed_computations.size(), static_cast<std::size_t>(testing::kRecoverySites));
  for (std::size_t i = 0; i < out.failed_computations.size(); ++i) {
    EXPECT_EQ(out.failed_computations[i], 0u) << "seed " << seed << ": site " << i;
  }

  std::printf("seed %llu: recoveries=%llu rejoins_completed=%llu suspicions=%llu "
              "suspicion_revocations=%llu view_change_drops=%llu "
              "rejoin_to_first_delivery=%ldus\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(out.net_recoveries),
              static_cast<unsigned long long>(out.rejoins_completed),
              static_cast<unsigned long long>(out.suspicions),
              static_cast<unsigned long long>(out.suspicion_revocations),
              static_cast<unsigned long long>(out.view_change_drops),
              out.rejoin4_first_delivery_us - out.rejoin4_requested_us);
  for (const auto& line : out.chaos_log) std::printf("  %s\n", line.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoverySweep, ::testing::Values(1u, 4u, 17u, 4242u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Fault-plan primitives (flap, one-way partitions) --------------------

TEST(FaultPlan, FlapExpandsToAlternatingCutsAndHeals) {
  using namespace std::chrono;
  chaos::FaultPlan plan;
  plan.flap(microseconds(1000), SiteId{1}, SiteId{2}, microseconds(500), 3);
  const auto& actions = plan.actions();
  ASSERT_EQ(actions.size(), 6u);  // 3 cuts + 3 heals
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const auto& a = actions[i];
    EXPECT_EQ(a.kind, i % 2 == 0 ? chaos::FaultAction::Kind::kPartition
                                 : chaos::FaultAction::Kind::kHeal)
        << "action " << i;
    EXPECT_EQ(a.at, microseconds(1000) + microseconds(500) * i) << "action " << i;
    EXPECT_EQ(a.a, SiteId{1});
    EXPECT_EQ(a.b, SiteId{2});
  }
}

TEST(FaultPlan, OnewayPrimitivesRecordDirection) {
  using namespace std::chrono;
  chaos::FaultPlan plan;
  plan.partition_oneway(microseconds(10), SiteId{3}, SiteId{4})
      .heal_oneway(microseconds(20), SiteId{3}, SiteId{4});
  const auto& actions = plan.actions();
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].kind, chaos::FaultAction::Kind::kPartitionOneway);
  EXPECT_EQ(actions[1].kind, chaos::FaultAction::Kind::kHealOneway);
  EXPECT_EQ(actions[0].a, SiteId{3});
  EXPECT_EQ(actions[0].b, SiteId{4});
}

TEST(ChaosEngine, AppliesFlapAndOnewayCutsAtVirtualTimes) {
  // A flap (one cut/heal cycle) plus an asymmetric cut, with probe sends
  // scheduled between the toggles: each send must see exactly the link
  // state its virtual instant implies, and the engine log must record
  // every applied action.
  using namespace std::chrono;
  time::VirtualClock clock;
  net::SimNetwork net(net::LinkOptions{.base_latency = microseconds(10)}, 1, &clock);
  net::TimerService script(&clock);
  chaos::ChaosEngine engine(net, script);
  std::atomic<int> got_b{0}, got_a{0};
  const SiteId a = net.add_site([&](const net::Packet&) { got_a.fetch_add(1); });
  const SiteId b = net.add_site([&](const net::Packet&) { got_b.fetch_add(1); });

  OneShotEvent horizon;
  {
    time::Pin setup(clock);
    chaos::FaultPlan plan;
    plan.flap(microseconds(1000), a, b, microseconds(1000), 1);  // cut 1ms..2ms
    plan.partition_oneway(microseconds(3000), a, b).heal_oneway(microseconds(5000), a, b);
    engine.arm(plan);
    script.schedule(microseconds(500), [&] { net.send(a, b, datagram(0)); });   // up
    script.schedule(microseconds(1500), [&] { net.send(a, b, datagram(1)); });  // flapped
    script.schedule(microseconds(2500), [&] { net.send(a, b, datagram(2)); });  // healed
    script.schedule(microseconds(3500), [&] {
      net.send(a, b, datagram(3));  // one-way cut: a->b dead...
      net.send(b, a, datagram(4));  // ...but b->a alive
    });
    script.schedule(microseconds(5500), [&] { net.send(a, b, datagram(5)); });  // healed
    script.schedule(microseconds(6000), [&] { horizon.set(); });
  }
  horizon.wait();
  net.drain();

  EXPECT_EQ(got_b.load(), 3);  // sends 0, 2, 5
  EXPECT_EQ(got_a.load(), 1);  // send 4 through the un-cut direction
  EXPECT_EQ(engine.stats().partitions.value(), 2u);
  EXPECT_EQ(engine.stats().heals.value(), 2u);
  bool oneway_logged = false;
  for (const auto& line : engine.log()) {
    if (line.find("(one-way)") != std::string::npos) oneway_logged = true;
  }
  EXPECT_TRUE(oneway_logged) << "one-way actions missing from the chaos log";
}

}  // namespace
}  // namespace samoa::gc
