// Heartbeat failure detector.
//
// Periodically sends heartbeats to every view member and suspects peers
// whose heartbeats stop arriving (eventually-perfect-style: a suspicion is
// revoked when a heartbeat arrives again). Suspicions are published with
// triggerAll on the Suspect event — the consensus microprotocol reacts by
// rotating the coordinator. Each heartbeat also carries the sender's
// decided frontier (Detector).
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "gc/detector.hpp"
#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class FailureDetector : public GcMicroprotocol, public Detector {
 public:
  FailureDetector(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* on_heartbeat_handler() const { return on_heartbeat_; }
  const Handler* send_heartbeats_handler() const { return send_heartbeats_; }
  const Handler* check_handler() const { return check_; }
  const Handler* view_change_handler() const { return view_change_; }

  std::uint64_t suspicions() const override { return suspicions_.value(); }
  /// Suspicions withdrawn because a heartbeat arrived again — the
  /// eventually-perfect detector recovering from a false positive (e.g. a
  /// partition outlasting fd_timeout, then healing).
  std::uint64_t suspicion_revocations() const override { return revocations_.value(); }
  bool is_suspected(SiteId site) override;

  /// Is there a liveness record for `site`? View-change bookkeeping probe:
  /// evicted peers must drop out of the map (else a rejoin inherits a
  /// stale timestamp and gets insta-suspected) and current members must
  /// have a seed (else the first check after a join starts the clock).
  bool tracks(SiteId site) const;

 private:
  SiteId self_;
  View view_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<SiteId, Clock::time_point> last_heard_;
  std::unordered_set<SiteId> suspected_;
  Counter suspicions_;
  Counter revocations_;
  mutable std::mutex snap_mu_;

  const Handler* on_heartbeat_ = nullptr;
  const Handler* send_heartbeats_ = nullptr;
  const Handler* check_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
