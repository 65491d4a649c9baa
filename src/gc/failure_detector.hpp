// Heartbeat failure detector.
//
// Suspects peers it has heard nothing from for fd_timeout (eventually-
// perfect-style: a suspicion is revoked when the peer is heard from
// again). Any packet proves its sender alive, not only a heartbeat:
// GroupNode::on_packet calls heard_from for every packet, outside any
// computation, and a heartbeat packet spawns none. So each heartbeat tick
// sends a heartbeat only to the view members Transport has sent nothing
// else to since the previous tick. Suspicions are published with
// triggerAll on the Suspect event — the consensus microprotocol reacts by
// rotating the coordinator.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "gc/detector.hpp"
#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/transport.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class FailureDetector : public GcMicroprotocol, public Detector {
 public:
  FailureDetector(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view,
                  const Transport& transport);

  const Handler* send_heartbeats_handler() const { return send_heartbeats_; }
  const Handler* check_handler() const { return check_; }
  const Handler* view_change_handler() const { return view_change_; }

  /// A packet from `site` arrived: refresh its liveness record and revoke
  /// a standing suspicion. Sites without a record (not in the view, or
  /// self) are ignored. Safe to call from any thread.
  void heard_from(SiteId site);

  std::uint64_t suspicions() const override { return suspicions_.value(); }
  /// Suspicions withdrawn because the peer was heard from again — the
  /// eventually-perfect detector recovering from a false positive (e.g. a
  /// partition outlasting fd_timeout, then healing).
  std::uint64_t suspicion_revocations() const override { return revocations_.value(); }
  bool is_suspected(SiteId site) override;
  /// Heartbeats not sent because the peer got another packet from us
  /// since the previous heartbeat tick.
  std::uint64_t heartbeats_skipped() const { return skipped_.value(); }

  /// Is there a liveness record for `site`? View-change bookkeeping probe:
  /// evicted peers must drop out of the map (else a rejoin inherits a
  /// stale timestamp and gets insta-suspected) and current members must
  /// have a seed (else the first check after a join starts the clock).
  bool tracks(SiteId site) const;

 private:
  SiteId self_;
  View view_;
  const Transport& transport_;
  Clock::time_point last_tick_{};  // when the previous heartbeat tick ran
  std::unordered_map<SiteId, Clock::time_point> last_heard_;
  std::unordered_set<SiteId> suspected_;
  Counter suspicions_;
  Counter revocations_;
  Counter skipped_;
  mutable std::mutex snap_mu_;  // guards last_heard_ and suspected_

  const Handler* send_heartbeats_ = nullptr;
  const Handler* check_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
