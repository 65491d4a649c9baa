#include "gc/failure_detector.hpp"

#include <algorithm>

#include "gc/wire.hpp"

namespace samoa::gc {

FailureDetector::FailureDetector(const GcOptions& opts, const GcEvents& gc_events, SiteId self,
                                 View initial_view)
    : GcMicroprotocol("fd", opts, gc_events),
      self_(self),
      view_(std::move(initial_view)),
      last_packet_(opts.now()) {
  tick_ = handle("tick", [this](Outbox& out) {
    const auto now = options().now();
    const std::vector<SiteId> waited = wait_source_ ? wait_source_() : std::vector<SiteId>{};
    const auto ask = [&](SiteId site) {
      out.trigger(events().transport_send,
                  Message::of(TransportSend{site, Wire{FdHeartbeat{.request = true}}}));
    };
    std::unique_lock snap(snap_mu_);
    for (auto& [site, peer] : peers_) {
      if (std::find(waited.begin(), waited.end(), site) == waited.end()) peer.asked.reset();
    }
    for (SiteId site : waited) {
      const auto it = peers_.find(site);
      if (it == peers_.end()) continue;
      Peer& peer = it->second;
      const bool unanswered = peer.asked && peer.heard < *peer.asked;
      if (unanswered && now - peer.heard >= options().fd_timeout) {
        if (suspected_.insert(site).second) {
          suspicions_.add();
          out.trigger_all(events().suspect, Message::of(site));
        }
        continue;
      }
      if (now - peer.heard < options().heartbeat_interval) continue;
      if (!unanswered) peer.asked = now;
      ask(site);
    }
    // A site that hears nothing at all may have lost the group's last
    // decision with nothing left to show it; any answer's header will.
    const auto& members = view_.members();
    if (now - last_packet_ < options().cs_retry_timeout || members.size() < 2) return;
    for (std::size_t n = 0; n < members.size(); ++n) {
      const SiteId site = members[probe_next_++ % members.size()];
      if (site == self_) continue;
      ask(site);
      break;
    }
  });

  answer_ = handle("answer", [this](Outbox& out, const FromWire& request) {
    out.trigger(events().transport_send,
                Message::of(TransportSend{request.from, Wire{FdHeartbeat{}}}));
  });

  view_change_ = handle("viewChange", [this](Outbox&, const View& next) {
    view_ = next;
    const auto now = options().now();
    std::unique_lock snap(snap_mu_);
    for (auto it = suspected_.begin(); it != suspected_.end();) {
      it = view_.contains(*it) ? std::next(it) : suspected_.erase(it);
    }
    // Liveness records must track the view exactly. An evicted peer's
    // stale timestamp would otherwise survive into a later view: if the
    // peer restarts and rejoins, the first wait on it would find it silent
    // for ages and suspect it at the first unanswered request. And a fresh
    // joiner with no record would never be asked or suspected, since
    // heard_from refreshes existing records only. Prune and seed eagerly.
    for (auto it = peers_.begin(); it != peers_.end();) {
      it = view_.contains(it->first) ? std::next(it) : peers_.erase(it);
    }
    for (SiteId site : view_.members()) {
      if (site == self_) continue;
      peers_.try_emplace(site, Peer{now, std::nullopt});
    }
  });
}

void FailureDetector::heard_from(SiteId site) {
  const auto now = options().now();
  std::unique_lock snap(snap_mu_);
  const auto it = peers_.find(site);
  if (it == peers_.end()) return;
  last_packet_ = now;
  it->second.heard = now;
  if (suspected_.erase(site) > 0) {
    revocations_.add();  // eventually-perfect: revoke on new evidence
  }
}

bool FailureDetector::is_suspected(SiteId site) {
  std::unique_lock snap(snap_mu_);
  return suspected_.contains(site);
}

bool FailureDetector::tracks(SiteId site) const {
  std::unique_lock snap(snap_mu_);
  return peers_.contains(site);
}

}  // namespace samoa::gc
