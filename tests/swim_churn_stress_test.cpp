// 200-site churn stress: the E-SWIM acceptance scenario as a stress cell.
//
// Runs the virtual_fleet churn harness at fleet scale — simultaneous crash
// of 10% of the sites, flapping links (one asymmetric), a partitioned-and-
// healed minority island — under the SWIM detector, and requires
// convergence to the agreed survivor view with zero virtual-synchrony
// violations. A deadlock watchdog converts any wedge into an immediate
// abort with a blocked-state dump instead of a silent ctest timeout; on an
// assertion-level failure the chaos log, detector counters and vs_checker
// report are written to SAMOA_WATCHDOG_DIR for CI artifact upload.
//
// Scale knobs: SAMOA_CHURN_SITES overrides the fleet size. Tier-1 runs the
// full 200-site acceptance scale: under virtual time every computation
// runs inline and each event wakes O(1) threads, so the ~2M simulated
// packets take seconds. The TSan default stays at 64 sites because the
// RelCast flood makes each broadcast O(n^2) packets and the sanitizer
// multiplies the per-packet cost.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "diag/watchdog.hpp"
#include "virtual_fleet.hpp"

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

using namespace std::chrono_literals;

int churn_sites() {
  if (const char* env = std::getenv("SAMOA_CHURN_SITES")) {
    const int n = std::atoi(env);
    if (n >= 5) return n;
  }
  return SAMOA_UNDER_TSAN ? 64 : 200;
}

// Virtual-time failsafe override, for triage: a non-converging fleet burns
// wall clock until the horizon, so a short horizon plus the failure report
// gives a cheap state snapshot of how far views/deliveries progressed.
std::chrono::microseconds churn_horizon() {
  if (const char* env = std::getenv("SAMOA_CHURN_HORIZON_MS")) {
    const long ms = std::atol(env);
    if (ms > 0) return std::chrono::microseconds(ms * 1000);
  }
  return std::chrono::microseconds(20'000'000);
}

void dump_failure_report(const testing::ChurnConfig& cfg, const testing::ChurnOutcome& out) {
  const char* dir = std::getenv("SAMOA_WATCHDOG_DIR");
  if (dir == nullptr) return;
  std::ofstream f(std::string(dir) + "/swim_churn_report.txt");
  f << "swim_churn_stress failure report\n"
    << "sites=" << cfg.sites << " seed=" << cfg.seed << " converged=" << out.converged
    << " converged_at_us=" << out.converged_at_us << "\n"
    << "first_suspicion_us=" << out.first_suspicion_us
    << " all_suspected_us=" << out.all_suspected_us
    << " false_positive_pairs=" << out.false_positive_pairs << "\n"
    << "suspicions=" << out.suspicions << " revocations=" << out.revocations
    << " refutations=" << out.refutations << " confirmations=" << out.confirmations << "\n"
    << "net sent=" << out.net_sent << " delivered=" << out.net_delivered
    << " dropped=" << out.net_dropped << "\n\n"
    << out.vs.describe() << "\n\nchaos log:\n";
  for (const auto& line : out.chaos_log) f << "  " << line << "\n";
  f << "\nview lines:\n";
  for (const auto& line : out.view_lines) f << "  " << line << "\n";
  f << "\ndelivery traces:\n";
  for (const auto& line : out.trace_lines) f << "  " << line << "\n";
}

class SwimChurnStress : public ::testing::Test {
 protected:
  void SetUp() override {
    diag::WatchdogOptions opts;
    // Virtual-clock fleets make steady progress or are wedged; the budget
    // only needs to cover sanitizer-paced packet processing.
    opts.budget = SAMOA_UNDER_TSAN ? 600s : 180s;
    opts.name = "swim_churn_stress";
    opts.abort_on_stall = true;
    if (const char* dir = std::getenv("SAMOA_WATCHDOG_DIR")) opts.dump_dir = dir;
    if (const char* ms = std::getenv("SAMOA_WATCHDOG_STUCK")) {
      const int n = std::atoi(ms);
      if (n > 0) opts.stuck_wait_budget = std::chrono::milliseconds(n);
    }
    dog_ = std::make_unique<diag::DeadlockWatchdog>(std::move(opts));
  }
  void TearDown() override { dog_.reset(); }

  std::unique_ptr<diag::DeadlockWatchdog> dog_;
};

TEST_F(SwimChurnStress, MassCrashFlapsAndPartitionConverge) {
  testing::ChurnConfig cfg;
  cfg.sites = churn_sites();
  cfg.seed = 20260809;
  cfg.detector = DetectorImpl::kSwim;
  // Bigger fleet => longer dissemination tail before every crashed site is
  // known at the observer: ~log2(n) epidemic rounds per rumor, but n/10
  // simultaneous rumors compete for the per-message piggyback cap (and 1%
  // of carriers drop), so the slowest of the batch needs linear-ish
  // headroom. 30ms was not enough for 20 parallel rumors at 200 sites.
  if (cfg.sites > 120) {
    cfg.detect_window = std::chrono::microseconds(20'000 + 200L * cfg.sites);
  }
  cfg.horizon = churn_horizon();

  const auto out = testing::run_churn_fleet(cfg);
  if (!out.converged || !out.vs.ok()) dump_failure_report(cfg, out);

  ASSERT_TRUE(out.converged) << "churn fleet never converged (sites=" << cfg.sites << ")";
  ASSERT_TRUE(out.vs.ok()) << out.vs.describe();
  dog_->kick();

  // The detector earned its keep: the mass crash was noticed quickly and
  // fully inside the detect window, churn produced suspicions, and the
  // healed island refuted instead of staying confirmed-faulty.
  EXPECT_GE(out.first_suspicion_us, 30000);
  EXPECT_GT(out.all_suspected_us, 0);
  EXPECT_GT(out.suspicions, 0u);
  EXPECT_GT(out.refutations, 0u);
  EXPECT_GT(out.revocations, 0u);
  EXPECT_GT(out.updates_piggybacked, 0u);
  // Every inferred declaration covered what its computation reached.
  ASSERT_EQ(out.failed_computations.size(), static_cast<std::size_t>(cfg.sites));
  for (std::size_t i = 0; i < out.failed_computations.size(); ++i) {
    EXPECT_EQ(out.failed_computations[i], 0u) << "site " << i;
  }

  RecordProperty("sites", cfg.sites);
  RecordProperty("first_suspicion_us", static_cast<int>(out.first_suspicion_us));
  RecordProperty("all_suspected_us", static_cast<int>(out.all_suspected_us));
  RecordProperty("false_positive_pairs", static_cast<int>(out.false_positive_pairs));
  RecordProperty("net_sent", static_cast<int>(out.net_sent));
  std::printf(
      "sites=%d converged_at_us=%ld detect(first/all)=%ld/%ld us after crash "
      "fp_pairs=%llu suspicions=%llu revocations=%llu refutations=%llu "
      "probes=%llu ping_reqs=%llu piggybacked=%llu net_sent=%llu\n",
      cfg.sites, out.converged_at_us, out.first_suspicion_us - 30000, out.all_suspected_us - 30000,
      static_cast<unsigned long long>(out.false_positive_pairs),
      static_cast<unsigned long long>(out.suspicions),
      static_cast<unsigned long long>(out.revocations),
      static_cast<unsigned long long>(out.refutations),
      static_cast<unsigned long long>(out.probes_sent),
      static_cast<unsigned long long>(out.ping_reqs_sent),
      static_cast<unsigned long long>(out.updates_piggybacked),
      static_cast<unsigned long long>(out.net_sent));
}

}  // namespace
}  // namespace samoa::gc
