// Heartbeat failure detector: liveness only where consensus waits.
//
// The one reader of a suspicion in the stack is consensus, which rotates
// an instance away from a coordinator it suspects (Consensus::on_suspect)
// and skips a suspected coordinator when an instance opens or its attempt
// advances. So the detector watches exactly the links on which an open
// instance waits: from this site to the coordinator of each of its open
// instances (Consensus::waits, a mirror read outside any declaration).
//
// Any packet proves its sender alive: GroupNode::on_packet calls heard_from
// for every packet, outside any computation, and a plain heartbeat spawns
// none. The detector's one tick, every heartbeat_interval:
//   - asks, with one FdHeartbeat request, every waited-on coordinator that
//     has sent nothing for heartbeat_interval. The request spawns one
//     computation at the coordinator, which answers at once with a plain
//     heartbeat;
//   - suspects a waited-on coordinator that an earlier tick asked, that
//     has sent nothing since, and that has been silent for fd_timeout, and
//     publishes the suspicion with triggerAll on the Suspect event;
//   - asks one member, round-robin over the view, when no packet at all
//     has arrived for cs_retry_timeout, so that the answer's header shows
//     a site that lost the group's last decision how far the group got.
// No idle link carries a heartbeat, and no idle peer is suspected. A
// suspicion stands, so consensus keeps skipping the suspect in later
// instances, until any packet from it arrives (eventually-perfect style)
// or a view change removes it.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gc/detector.hpp"
#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class FailureDetector : public GcMicroprotocol, public Detector {
 public:
  FailureDetector(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* tick_handler() const { return tick_; }
  const Handler* answer_handler() const { return answer_; }
  const Handler* view_change_handler() const { return view_change_; }

  /// Where the coordinators this site's open consensus instances wait on
  /// come from (Consensus::waits). Wired before the stack spawns; unset,
  /// nothing is waited on.
  void set_wait_source(std::function<std::vector<SiteId>()> source) {
    wait_source_ = std::move(source);
  }

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

  /// Is there a liveness record for `site`? View-change bookkeeping probe:
  /// evicted peers must drop out of the map (else a rejoin inherits a
  /// stale timestamp and gets suspected at its first request) and current
  /// members must have a seed (else a joiner that dies at once is never
  /// found silent).
  bool tracks(SiteId site) const;

 private:
  struct Peer {
    Clock::time_point heard;  // its last packet of any kind
    // The first request since `heard` a tick sent it while waited on;
    // cleared when it is no longer waited on.
    std::optional<Clock::time_point> asked;
  };

  SiteId self_;
  View view_;
  std::function<std::vector<SiteId>()> wait_source_;
  std::unordered_map<SiteId, Peer> peers_;
  std::unordered_set<SiteId> suspected_;
  Clock::time_point last_packet_;  // the latest packet from any member
  std::size_t probe_next_ = 0;     // round-robin cursor of the idle probe
  Counter suspicions_;
  Counter revocations_;
  mutable std::mutex snap_mu_;  // guards peers_, suspected_ and last_packet_

  const Handler* tick_ = nullptr;
  const Handler* answer_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
