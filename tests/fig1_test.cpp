// End-to-end tests on the paper's Figure 1 protocol: every controller is
// exercised with the two concurrent external events a0 and b0, and the
// recorded runs are classified exactly as Section 2 does for r1/r2/r3.
#include <gtest/gtest.h>

#include "proto/fig1.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"

namespace samoa {
namespace {

using proto::Fig1Msg;
using proto::Fig1Protocol;

struct Fig1Param {
  CCPolicy policy;
  bool must_be_serial;  // Appia-like baseline admits only serial runs
};

class Fig1AllPolicies : public ::testing::TestWithParam<Fig1Param> {};

TEST_P(Fig1AllPolicies, TwoExternalEventsAreIsolated) {
  const auto param = GetParam();
  Fig1Protocol proto;
  Runtime rt(proto.stack(), RuntimeOptions{.policy = param.policy, .record_trace = true});

  // Slow R for ka so that schedules genuinely interleave when permitted.
  auto ka = proto.spawn(rt, Fig1Msg{.tag = 'a', .delay_r = std::chrono::microseconds(2000)});
  auto kb = proto.spawn(rt, Fig1Msg{.tag = 'b'});
  ka.wait();
  kb.wait();
  rt.drain();

  auto report = check_isolation(rt.trace()->snapshot());
  EXPECT_TRUE(report.isolated) << to_string(param.policy) << ": " << report.summary();
  if (param.must_be_serial) {
    EXPECT_TRUE(report.serial);
  }

  // All four stages executed for both computations.
  const auto log = proto.access_log();
  EXPECT_EQ(log.size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, Fig1AllPolicies,
    ::testing::Values(Fig1Param{CCPolicy::kSerial, true},
                      Fig1Param{CCPolicy::kVCABasic, false},
                      Fig1Param{CCPolicy::kVCABound, false},
                      Fig1Param{CCPolicy::kVCARoute, false}),
    [](const ::testing::TestParamInfo<Fig1Param>& info) {
      return to_string(info.param.policy);
    });

TEST(Fig1, RepeatedPairsStayIsolatedUnderVCABasic) {
  Fig1Protocol proto;
  Runtime rt(proto.stack(), RuntimeOptions{.policy = CCPolicy::kVCABasic, .record_trace = true});
  std::vector<ComputationHandle> hs;
  Rng rng(2024);
  for (int i = 0; i < 25; ++i) {
    hs.push_back(proto.spawn(
        rt, Fig1Msg{.tag = 'a',
                    .delay_r = std::chrono::microseconds(rng.next_below(500))}));
    hs.push_back(proto.spawn(
        rt, Fig1Msg{.tag = 'b',
                    .delay_s = std::chrono::microseconds(rng.next_below(500))}));
  }
  for (auto& h : hs) h.wait();
  rt.drain();
  auto report = check_isolation(rt.trace()->snapshot());
  EXPECT_TRUE(report.isolated) << report.summary();
  EXPECT_EQ(proto.access_log().size(), 50u * 3u);
}

TEST(Fig1, UnsyncProducesR3StyleViolation) {
  // Engineer the paper's run r3: ka is slow inside R (so kb's R execution
  // overlaps or slips in between) and slow before S. Repeat until the
  // checker flags a violation — the unsynchronised baseline permits it.
  bool violated = false;
  for (int attempt = 0; attempt < 20 && !violated; ++attempt) {
    Fig1Protocol proto;
    Runtime rt(proto.stack(), RuntimeOptions{.policy = CCPolicy::kUnsync, .record_trace = true});
    auto ka = proto.spawn(rt, Fig1Msg{.tag = 'a', .delay_r = std::chrono::microseconds(3000)});
    auto kb = proto.spawn(rt, Fig1Msg{.tag = 'b'});
    ka.wait();
    kb.wait();
    rt.drain();
    violated = !check_isolation(rt.trace()->snapshot()).isolated;
  }
  EXPECT_TRUE(violated) << "unsync baseline never produced an r3-style run in 20 attempts";
}

TEST(Fig1, SerialOrderMatchesCausality) {
  // Under VCAbasic the admission order fixes the serialization order:
  // ka spawned first must precede kb in the equivalent serial order when
  // they conflict on R and S.
  Fig1Protocol proto;
  Runtime rt(proto.stack(), RuntimeOptions{.policy = CCPolicy::kVCABasic, .record_trace = true});
  auto ka = proto.spawn(rt, Fig1Msg{.tag = 'a', .delay_r = std::chrono::microseconds(1000)});
  auto kb = proto.spawn(rt, Fig1Msg{.tag = 'b'});
  ka.wait();
  kb.wait();
  rt.drain();
  auto report = check_isolation(rt.trace()->snapshot());
  ASSERT_TRUE(report.isolated);
  ASSERT_EQ(report.equivalent_serial_order.size(), 2u);
  EXPECT_EQ(report.equivalent_serial_order[0], ka.id());
  EXPECT_EQ(report.equivalent_serial_order[1], kb.id());
}

TEST(Fig1, BoundVariantReleasesREarly) {
  // With per-microprotocol bound 1, ka's completed R visit releases R to
  // kb while ka is still inside S — more overlap than VCAbasic, still
  // isolated.
  Fig1Protocol proto;
  Runtime rt(proto.stack(), RuntimeOptions{.policy = CCPolicy::kVCABound, .record_trace = true});
  auto ka = proto.spawn(rt, Fig1Msg{.tag = 'a', .delay_s = std::chrono::microseconds(5000)});
  auto kb = proto.spawn(rt, Fig1Msg{.tag = 'b'});
  ka.wait();
  kb.wait();
  rt.drain();
  auto report = check_isolation(rt.trace()->snapshot());
  EXPECT_TRUE(report.isolated) << report.summary();
}

}  // namespace
}  // namespace samoa
