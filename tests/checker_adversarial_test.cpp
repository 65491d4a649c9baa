// Adversarial tests for the isolation oracle: hand-built traces chosen to
// probe the checker's blind spots (interleaving shapes, long precedence
// cycles, rollback exclusion, incompleteness modes), plus a fuzz loop that
// *constructs* traces containing a conflicting overlap and asserts the
// oracle never calls them isolated. The schedule explorer trusts this
// oracle unconditionally — a false "isolated" here silently disarms the
// whole exploration harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gc/view.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"
#include "verify/vs_checker.hpp"

namespace samoa {
namespace {

struct TraceBuilder {
  std::vector<TraceEvent> events;
  std::uint64_t seq = 0;

  TraceBuilder& spawn(ComputationId k) {
    events.push_back({seq++, TracePhase::kSpawn, k, {}, {}});
    return *this;
  }
  TraceBuilder& done(ComputationId k) {
    events.push_back({seq++, TracePhase::kDone, k, {}, {}});
    return *this;
  }
  TraceBuilder& abort(ComputationId k) {
    events.push_back({seq++, TracePhase::kAbort, k, {}, {}});
    return *this;
  }
  TraceBuilder& start(ComputationId k, MicroprotocolId mp, HandlerId h, bool ro = false) {
    events.push_back({seq++, TracePhase::kStart, k, mp, h, ro});
    return *this;
  }
  TraceBuilder& end(ComputationId k, MicroprotocolId mp, HandlerId h, bool ro = false) {
    events.push_back({seq++, TracePhase::kEnd, k, mp, h, ro});
    return *this;
  }
  TraceBuilder& exec(ComputationId k, MicroprotocolId mp, HandlerId h, bool ro = false) {
    return start(k, mp, h, ro).end(k, mp, h, ro);
  }
};

ComputationId comp(std::uint32_t n) { return ComputationId{n}; }
MicroprotocolId mp(std::uint32_t n) { return MicroprotocolId{n}; }
HandlerId h(std::uint32_t n) { return HandlerId{n}; }

// --- A-B-A interleavings -------------------------------------------------

TEST(CheckerAdversarial, AbaInterleavingViolatesEvenWithoutOverlap) {
  // No intervals overlap; the violation is purely block contiguity.
  TraceBuilder t;
  t.spawn(comp(1)).spawn(comp(2));
  t.exec(comp(1), mp(1), h(1));
  t.exec(comp(2), mp(1), h(1));
  t.exec(comp(1), mp(1), h(1));
  t.done(comp(1)).done(comp(2));
  auto report = check_isolation(t.events);
  EXPECT_FALSE(report.isolated) << report.summary();
}

TEST(CheckerAdversarial, AbaAcrossDistinctHandlersOfOneMpViolates) {
  // The unit of conflict is the microprotocol, not the handler: A-B-A with
  // three different handlers of the same mp is still unserialisable.
  TraceBuilder t;
  t.spawn(comp(1)).spawn(comp(2));
  t.exec(comp(1), mp(1), h(1));
  t.exec(comp(2), mp(1), h(2));
  t.exec(comp(1), mp(1), h(3));
  t.done(comp(1)).done(comp(2));
  EXPECT_FALSE(check_isolation(t.events).isolated);
}

TEST(CheckerAdversarial, AbaWhereMiddleBlockWasRolledBackIsIsolated) {
  // The middle access belongs to a computation that aborted *after* it:
  // rolled back, never visible, so the trace serialises.
  TraceBuilder t;
  t.spawn(comp(1)).spawn(comp(2));
  t.exec(comp(1), mp(1), h(1));
  t.exec(comp(2), mp(1), h(1));
  t.abort(comp(2));  // rolls back the access above
  t.exec(comp(1), mp(1), h(1));
  t.exec(comp(2), mp(1), h(1));  // the retry, after comp(1)'s block
  t.done(comp(1)).done(comp(2));
  auto report = check_isolation(t.events);
  EXPECT_TRUE(report.isolated) << report.summary();
}

TEST(CheckerAdversarial, AbaAfterAbortStillViolates) {
  // The same A-B-A shape but *after* the abort: rollback must not excuse
  // post-restart accesses.
  TraceBuilder t;
  t.spawn(comp(1)).spawn(comp(2));
  t.abort(comp(2));
  t.exec(comp(1), mp(1), h(1));
  t.exec(comp(2), mp(1), h(1));
  t.exec(comp(1), mp(1), h(1));
  t.done(comp(1)).done(comp(2));
  EXPECT_FALSE(check_isolation(t.events).isolated);
}

TEST(CheckerAdversarial, ReadOnlyAbaCommutesAndIsIsolated) {
  // A-B-A where every access is declared read-only: all pairs commute, no
  // conflict edges, serialisable.
  TraceBuilder t;
  t.spawn(comp(1)).spawn(comp(2));
  t.exec(comp(1), mp(1), h(1), /*ro=*/true);
  t.exec(comp(2), mp(1), h(1), /*ro=*/true);
  t.exec(comp(1), mp(1), h(1), /*ro=*/true);
  t.done(comp(1)).done(comp(2));
  auto report = check_isolation(t.events);
  EXPECT_TRUE(report.isolated) << report.summary();
}

// --- long precedence cycles ---------------------------------------------

/// Ring of `n` computations: comp i precedes comp i+1 on microprotocol i,
/// and comp n-1 precedes comp 0 on microprotocol n-1 — a length-n cycle
/// with no overlapping intervals anywhere.
std::vector<TraceEvent> precedence_ring(std::uint32_t n) {
  TraceBuilder t;
  for (std::uint32_t i = 0; i < n; ++i) t.spawn(comp(i + 1));
  for (std::uint32_t i = 0; i < n; ++i) {
    t.exec(comp(i + 1), mp(i + 1), h(i + 1));
    t.exec(comp((i + 1) % n + 1), mp(i + 1), h(i + 1));
  }
  for (std::uint32_t i = 0; i < n; ++i) t.done(comp(i + 1));
  return t.events;
}

TEST(CheckerAdversarial, PrecedenceCyclesOfLength3To6Detected) {
  for (std::uint32_t n = 3; n <= 6; ++n) {
    auto report = check_isolation(precedence_ring(n));
    EXPECT_FALSE(report.isolated) << "cycle length " << n << " not detected";
    EXPECT_TRUE(report.equivalent_serial_order.empty());
  }
}

TEST(CheckerAdversarial, BrokenRingSerialises) {
  // Same ring shape minus the closing edge: must serialise (guards against
  // the cycle check over-firing on long chains).
  TraceBuilder t;
  const std::uint32_t n = 5;
  for (std::uint32_t i = 0; i < n; ++i) t.spawn(comp(i + 1));
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.exec(comp(i + 1), mp(i + 1), h(i + 1));
    t.exec(comp(i + 2), mp(i + 1), h(i + 1));
  }
  for (std::uint32_t i = 0; i < n; ++i) t.done(comp(i + 1));
  auto report = check_isolation(t.events);
  ASSERT_TRUE(report.isolated) << report.summary();
  ASSERT_EQ(report.equivalent_serial_order.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(report.equivalent_serial_order[i], comp(i + 1));
  }
}

// --- allow_incomplete, both ways ----------------------------------------

TEST(CheckerAdversarial, IncompleteAccessStrictVsLax) {
  TraceBuilder t;
  t.spawn(comp(1)).spawn(comp(2));
  t.exec(comp(1), mp(1), h(1));
  t.exec(comp(2), mp(2), h(2));
  t.start(comp(2), mp(3), h(3));  // still running when the trace was cut
  EXPECT_FALSE(check_isolation(t.events, /*allow_incomplete=*/false).isolated);
  EXPECT_TRUE(check_isolation(t.events, /*allow_incomplete=*/true).isolated);
}

TEST(CheckerAdversarial, LaxModeStillCatchesCompleteViolations) {
  // allow_incomplete forgives pending accesses, nothing else: a completed
  // overlap in the same trace must still be flagged.
  TraceBuilder t;
  t.spawn(comp(1)).spawn(comp(2)).spawn(comp(3));
  t.start(comp(1), mp(1), h(1)).start(comp(2), mp(1), h(1));
  t.end(comp(1), mp(1), h(1)).end(comp(2), mp(1), h(1));
  t.start(comp(3), mp(2), h(2));  // pending, unrelated
  EXPECT_FALSE(check_isolation(t.events, /*allow_incomplete=*/true).isolated);
}

// --- fuzz: the oracle must never bless an overlap -----------------------

/// Generate a random serial background (each computation's accesses
/// contiguous per mp, no overlaps), then splice in one guaranteed
/// read-write overlap between two fresh computations on a fresh
/// microprotocol. Whatever else the trace contains, "isolated" would be a
/// false negative.
std::vector<TraceEvent> trace_with_planted_overlap(Rng& rng) {
  TraceBuilder t;
  const std::uint32_t background = 2 + static_cast<std::uint32_t>(rng.next_below(4));
  const std::uint32_t shared_mps = 1 + static_cast<std::uint32_t>(rng.next_below(3));
  // Background computations run strictly one after another.
  for (std::uint32_t k = 0; k < background; ++k) {
    t.spawn(comp(100 + k));
    const std::uint32_t accesses = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    for (std::uint32_t a = 0; a < accesses; ++a) {
      const auto m = static_cast<std::uint32_t>(rng.next_below(shared_mps));
      t.exec(comp(100 + k), mp(50 + m), h(50 + m), rng.chance(0.3));
    }
    t.done(comp(100 + k));
  }
  // The planted pair: overlapping write accesses on their own mp, spliced
  // at a random position by reassigning sequence numbers afterwards.
  TraceBuilder planted;
  planted.seq = t.seq;
  planted.spawn(comp(1)).spawn(comp(2));
  planted.start(comp(1), mp(9), h(9));
  planted.start(comp(2), mp(9), h(9));
  if (rng.chance(0.5)) {
    planted.end(comp(1), mp(9), h(9)).end(comp(2), mp(9), h(9));
  } else {
    planted.end(comp(2), mp(9), h(9)).end(comp(1), mp(9), h(9));
  }
  planted.done(comp(1)).done(comp(2));

  // Interleave the planted pair into the background at a random offset,
  // keeping relative order within each list (stable seq renumbering).
  std::vector<TraceEvent> all = t.events;
  const std::size_t at = rng.next_below(all.size() + 1);
  all.insert(all.begin() + static_cast<std::ptrdiff_t>(at), planted.events.begin(),
             planted.events.end());
  for (std::size_t i = 0; i < all.size(); ++i) all[i].seq = i;
  return all;
}

TEST(CheckerAdversarial, FuzzedOverlapTracesAreNeverIsolated) {
  const std::uint64_t seed = testing::test_seed(20260807);
  Rng rng(seed);
  for (int round = 0; round < 300; ++round) {
    const auto events = trace_with_planted_overlap(rng);
    auto report = check_isolation(events, /*allow_incomplete=*/true);
    ASSERT_FALSE(report.isolated)
        << "oracle blessed a trace with a planted overlap (seed=" << seed << " round=" << round
        << ")\n"
        << TraceRecorder::format(events);
  }
}

// --- vs_checker at fleet scale -------------------------------------------
//
// Hand-built incarnation traces for a 120-site fleet going through the
// SWIM churn shape — suspicion-driven evictions, refuted members rejoining
// as new incarnations — probing the virtual-synchrony checker's agreement,
// window, duplicate and view invariants at a scale where a quadratic or
// per-pair formulation would have been written off. The consistent
// baseline must pass; each single-site corruption must be caught.

namespace vs_adversarial {

using samoa::gc::View;
using samoa::verify::DeliveryRecord;
using samoa::verify::IncarnationTrace;
using samoa::verify::check_virtual_synchrony;

constexpr int kSites = 120;
constexpr int kEvicted = 12;    // sites 108..119 evicted in view 2
constexpr int kRejoined = 6;    // sites 108..113 re-added in view 3

DeliveryRecord rec(std::uint64_t n, std::uint64_t view_id) {
  return DeliveryRecord{n, view_id, n, std::string("m").append(std::to_string(n))};
}

// Message n lives in view 1 (n <= 8), view 2 (n <= 14) or view 3.
std::uint64_t view_of(std::uint64_t n) { return n <= 8 ? 1 : n <= 14 ? 2 : 3; }

std::vector<IncarnationTrace> churn_fleet_traces() {
  std::vector<SiteId> all;
  for (int i = 0; i < kSites; ++i) all.push_back(SiteId{static_cast<std::uint32_t>(i)});
  std::vector<SiteId> v2(all.begin(), all.end() - kEvicted);
  std::vector<SiteId> v3 = v2;
  for (int i = 0; i < kRejoined; ++i) v3.push_back(all[kSites - kEvicted + i]);
  const View view1(1, all), view2(2, v2), view3(3, v3);

  std::vector<IncarnationTrace> traces;
  // Survivors: full history across all three views.
  for (int i = 0; i < kSites - kEvicted; ++i) {
    IncarnationTrace t;
    t.site = all[i];
    t.views = {view1, view2, view3};
    for (std::uint64_t n = 1; n <= 20; ++n) t.deliveries.push_back(rec(n, view_of(n)));
    traces.push_back(std::move(t));
  }
  // Evicted sites: a crashed first incarnation holding the view-1 prefix.
  for (int i = kSites - kEvicted; i < kSites; ++i) {
    IncarnationTrace t;
    t.site = all[i];
    t.crashed = true;
    t.views = {view1};
    for (std::uint64_t n = 1; n <= 8; ++n) t.deliveries.push_back(rec(n, 1));
    traces.push_back(std::move(t));
  }
  // Rejoined sites: a second incarnation re-entering at view 3 with a gap
  // (messages 9..14 happened while it was out — allowed), alive at end.
  for (int i = kSites - kEvicted; i < kSites - kEvicted + kRejoined; ++i) {
    IncarnationTrace t;
    t.site = all[i];
    t.incarnation = 1;
    t.views = {view3};
    for (std::uint64_t n = 15; n <= 20; ++n) t.deliveries.push_back(rec(n, 3));
    traces.push_back(std::move(t));
  }
  return traces;
}

TEST(VsCheckerAdversarial, ConsistentChurnFleetAtScalePasses) {
  const auto traces = churn_fleet_traces();
  const auto report = check_virtual_synchrony(traces);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.incarnations_checked, static_cast<std::size_t>(kSites + kRejoined));
  EXPECT_EQ(report.reference_length, 20u);
}

TEST(VsCheckerAdversarial, OneSiteDeliveringInStaleViewIsCaught) {
  auto traces = churn_fleet_traces();
  // Site 57 claims message 12 was delivered in view 3; everyone else says
  // view 2 — the same-view agreement the view-change flush exists for.
  traces[57].deliveries[11].view_id = 3;
  const auto report = check_virtual_synchrony(traces);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("same-view agreement"), std::string::npos)
      << report.describe();
}

TEST(VsCheckerAdversarial, RejoinedIncarnationReenteringEarlyIsCaught) {
  auto traces = churn_fleet_traces();
  // Rejoined site 108#1 starts its window at message 8 — which its crashed
  // incarnation 108#0 already delivered: a duplicate across incarnations.
  IncarnationTrace& rejoined = traces[kSites];  // first second-incarnation trace
  ASSERT_EQ(rejoined.incarnation, 1u);
  rejoined.deliveries.clear();
  for (std::uint64_t n = 8; n <= 20; ++n) rejoined.deliveries.push_back(rec(n, view_of(n)));
  const auto report = check_virtual_synchrony(traces);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.find("duplicate delivery") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.describe();
}

TEST(VsCheckerAdversarial, SuspicionHoleInsideWindowIsCaught) {
  auto traces = churn_fleet_traces();
  // Site 31 skipped message 10 mid-window (e.g. dropped while wrongly
  // suspected) but kept delivering afterwards: a hole, not a window.
  auto& d = traces[31].deliveries;
  d.erase(d.begin() + 9);
  const auto report = check_virtual_synchrony(traces);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.find("window consistency") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.describe();
}

TEST(VsCheckerAdversarial, ConflictingMemberSetsForOneViewIdAreCaught) {
  auto traces = churn_fleet_traces();
  // Site 99 installed a "view 3" missing one rejoined member — two member
  // sets under one view id.
  std::vector<SiteId> wrong = traces[99].views[2].members();
  wrong.pop_back();
  traces[99].views[2] = View(3, wrong);
  const auto report = check_virtual_synchrony(traces);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.find("view agreement") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.describe();
}

TEST(VsCheckerAdversarial, DivergentOrdinalAtScaleIsCaught) {
  auto traces = churn_fleet_traces();
  // One site slots message 12 at a different total-order position.
  traces[3].deliveries[11].ordinal = 99;
  const auto report = check_virtual_synchrony(traces);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.find("total order") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.describe();
}

TEST(VsCheckerAdversarial, IncarnationJoinedAfterTheLastDeliveryPasses) {
  auto traces = churn_fleet_traces();
  // Evicted site 114 rejoins as 114#1 in view 4, after message 20, the
  // last one, was delivered in view 3: it has nothing to deliver.
  std::vector<SiteId> v4 = traces[0].views[2].members();
  v4.push_back(traces[114].site);
  const View view4(4, v4);
  for (auto& t : traces) {
    if (!t.crashed) t.views.push_back(view4);
  }
  IncarnationTrace joined;
  joined.site = traces[114].site;
  joined.incarnation = 1;
  joined.views = {view4};
  traces.push_back(std::move(joined));
  const auto report = check_virtual_synchrony(traces);
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(VsCheckerAdversarial, RejoinedIncarnationMissingTheFirstMessageOfItsViewIsCaught) {
  auto traces = churn_fleet_traces();
  // Rejoined site 108#1 installed view 3 but starts at message 16: it
  // lost message 15, delivered in view 3 by every other member, although
  // its window is contiguous and reaches the end of the order.
  IncarnationTrace& rejoined = traces[kSites];  // first second-incarnation trace
  ASSERT_EQ(rejoined.incarnation, 1u);
  rejoined.deliveries.erase(rejoined.deliveries.begin());
  ASSERT_EQ(rejoined.deliveries.front().id, 16u);
  const auto report = check_virtual_synchrony(traces);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.find("lost delivery") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.describe();
}

}  // namespace vs_adversarial

}  // namespace
}  // namespace samoa
