// Virtual-synchrony checker.
//
// Mechanically validates the delivery guarantees the group-communication
// stack (paper Section 3) owes the application, across crash / recovery /
// rejoin cycles — the runtime-checking idea of the Derecho verification
// work (PAPERS.md) applied to SAMOA's stack. The unit of checking is an
// *incarnation*: one lifetime of one site, from start (or restart) until
// it crashed or the run ended. Each incarnation reports its totally-
// ordered deliveries (with the view each was delivered in and its global
// ordering position) plus the views it installed.
//
// Checked invariants:
//   1. Same-view delivery agreement — any two incarnations delivering the
//      same message deliver it in the same view.
//   2. Consistent total order — the (ordinal, id) positions agree across
//      incarnations, and every incarnation's trace is strictly ordered.
//   3. Window (prefix) consistency — each incarnation's trace is one
//      contiguous window of the reference order: no holes, so across a
//      crash/rejoin a site's history is old-window + gap + new-window,
//      a consistent continuation rather than a duplicate replay.
//   4. No duplicate delivery per site — successive incarnations' windows
//      are disjoint and strictly advancing.
//   5. No lost stable delivery — every incarnation alive at the end of
//      the run (a) reached the end of the reference order, unless every
//      view it installed as a member is newer than the view the order's
//      last message was delivered in (it joined after the last delivery),
//      and (b) delivered every message delivered in a view it installed
//      as a member.
//   6. View agreement — a view id maps to one member set everywhere, and
//      each incarnation installs strictly increasing view ids.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gc/view.hpp"
#include "util/ids.hpp"

namespace samoa::verify {

/// One totally-ordered delivery as the application sink observed it.
struct DeliveryRecord {
  std::uint64_t id = 0;       // gc::MsgId
  std::uint64_t view_id = 0;  // view installed when the delivery happened
  std::uint64_t ordinal = 0;  // global order position (the consensus slot)
  std::string data;
};

/// One lifetime of one site.
struct IncarnationTrace {
  SiteId site;
  std::uint64_t incarnation = 0;  // 0 = first lifetime, then 1, 2, ...
  bool crashed = false;           // ended by a crash (true) or alive at run end
  std::vector<DeliveryRecord> deliveries;
  std::vector<gc::View> views;  // views installed during this lifetime
};

struct VsReport {
  std::vector<std::string> violations;
  std::size_t reference_length = 0;  // length of the reconstructed total order
  std::size_t incarnations_checked = 0;

  bool ok() const { return violations.empty(); }
  /// Multi-line human-readable summary ("OK" or the violations).
  std::string describe() const;
};

/// Run all checks over the incarnation traces of one simulated run.
VsReport check_virtual_synchrony(const std::vector<IncarnationTrace>& traces);

/// Invariant 5 for one incarnation alive at the end of the run, against
/// the reference order (every delivery, in (ordinal, id) order): empty
/// when it holds, else the finding.
std::string lost_delivery(const IncarnationTrace& t, const std::vector<DeliveryRecord>& reference);

}  // namespace samoa::verify
