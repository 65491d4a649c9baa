// Fleet-scale SWIM membership under scripted churn (tier-1 size).
//
// Drives tests/virtual_fleet.hpp's churn harness at 50 sites on the
// virtual clock: flapping links (one of them asymmetric), a minority
// island partitioned away long enough to be confirmed faulty and then
// healed (exercising incarnation-numbered resurrection), and a
// simultaneous crash of 10% of the fleet followed by scripted evictions.
// Asserts convergence to the agreed survivor view with zero
// virtual-synchrony violations, that the detection-latency samples landed
// inside the detect window, that no version gate ever blocked (virtual
// time runs every computation inline) and that no computation failed. A
// heartbeat-detector cell runs the same scenario at small scale through
// the same Detector seam.
#include <gtest/gtest.h>

#include <string>

#include "virtual_fleet.hpp"

namespace samoa::gc {
namespace {

using testing::ChurnConfig;
using testing::run_churn_fleet;

TEST(SwimFleet, FiftySiteChurnConvergesWithZeroVsViolations) {
  ChurnConfig cfg;
  cfg.sites = 50;
  cfg.seed = 1;
  cfg.detector = DetectorImpl::kSwim;
  const auto out = run_churn_fleet(cfg);

  ASSERT_TRUE(out.converged) << "fleet never converged; chaos log tail:\n"
                             << (out.chaos_log.empty() ? "" : out.chaos_log.back());
  EXPECT_TRUE(out.vs.ok()) << out.vs.describe();
  EXPECT_GT(out.traces.size(), 0u);

  // The crash was detected: a first suspicion inside the detect window,
  // and site 0 saw every crashed site suspected before the evictions.
  EXPECT_GE(out.first_suspicion_us, 30000) << "suspicion sampled before the crash?";
  EXPECT_GT(out.all_suspected_us, 0) << "not every crashed site was suspected in the window";
  EXPECT_LE(out.all_suspected_us, 50000);

  // SWIM actually ran: probes every period, suspicions from the churn,
  // refutations from the healed island, piggybacked dissemination.
  EXPECT_GT(out.periods, 0u);
  EXPECT_GT(out.probes_sent, 0u);
  EXPECT_GT(out.suspicions, 0u);
  EXPECT_GT(out.updates_piggybacked, 0u);
  EXPECT_GT(out.refutations, 0u) << "the healed island never refuted its confirmed-faulty state";
  EXPECT_GT(out.revocations, 0u);

  // Virtual time runs one computation at a time, inline: no gate can block.
  ASSERT_EQ(out.gate_waits.size(), 50u);
  for (std::size_t i = 0; i < out.gate_waits.size(); ++i) {
    EXPECT_EQ(out.gate_waits[i], 0u) << "site " << i;
  }
  // Every inferred declaration covered what its computation reached.
  ASSERT_EQ(out.failed_computations.size(), 50u);
  for (std::size_t i = 0; i < out.failed_computations.size(); ++i) {
    EXPECT_EQ(out.failed_computations[i], 0u) << "site " << i;
  }
}

TEST(SwimFleet, HeartbeatDetectorRunsSameScenarioThroughSeam) {
  // Same harness, heartbeat detector, small scale (the equal-bandwidth
  // heartbeat interval grows with n, so a big fleet would need a huge
  // detect window — that trade-off is the E-SWIM bench's subject, not
  // this test's).
  ChurnConfig cfg;
  cfg.sites = 10;
  cfg.seed = 3;
  cfg.detector = DetectorImpl::kHeartbeat;
  // Heartbeat detection latency is up to 2*fd_timeout after last contact
  // (the check tick runs once per fd_timeout); at 10 sites the equal-
  // bandwidth scaling makes that ~54ms past the crash. Size the window so
  // the suspicion lands before the evictions close the sample.
  cfg.detect_window = std::chrono::microseconds(60000);
  const auto out = run_churn_fleet(cfg);

  ASSERT_TRUE(out.converged);
  EXPECT_TRUE(out.vs.ok()) << out.vs.describe();
  EXPECT_GT(out.suspicions, 0u);
  // SWIM counters must stay untouched behind the heartbeat seam.
  EXPECT_EQ(out.probes_sent, 0u);
  EXPECT_EQ(out.periods, 0u);
  for (std::size_t i = 0; i < out.gate_waits.size(); ++i) {
    EXPECT_EQ(out.gate_waits[i], 0u) << "site " << i;
  }
  ASSERT_EQ(out.failed_computations.size(), 10u);
  for (std::size_t i = 0; i < out.failed_computations.size(); ++i) {
    EXPECT_EQ(out.failed_computations[i], 0u) << "site " << i;
  }
}

}  // namespace
}  // namespace samoa::gc
