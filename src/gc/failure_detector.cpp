#include "gc/failure_detector.hpp"

#include "gc/wire.hpp"

namespace samoa::gc {

FailureDetector::FailureDetector(const GcOptions& opts, const GcEvents& gc_events, SiteId self,
                                 View initial_view, const Transport& transport)
    : GcMicroprotocol("fd", opts, gc_events),
      self_(self),
      view_(std::move(initial_view)),
      transport_(transport) {
  send_heartbeats_ = handle("send_heartbeats", [this](Outbox& out) {
    const auto now = options().now();
    for (SiteId site : view_.members()) {
      if (site == self_) continue;
      // Whatever we sent the peer since the previous tick told it what
      // a heartbeat would.
      if (transport_.last_sent_to(site) > last_tick_) {
        skipped_.add();
        continue;
      }
      out.trigger(events().transport_send, Message::of(TransportSend{site, Wire{FdHeartbeat{}}}));
    }
    last_tick_ = now;
  });

  check_ = handle("check", [this](Outbox& out) {
    const auto now = options().now();
    std::unique_lock snap(snap_mu_);
    for (SiteId site : view_.members()) {
      if (site == self_) continue;
      auto it = last_heard_.find(site);
      // A peer we never heard from gets a full timeout from start-up;
      // seed its record on first check.
      if (it == last_heard_.end()) {
        last_heard_[site] = now;
        continue;
      }
      const bool overdue = now - it->second > options().fd_timeout;
      if (overdue && !suspected_.contains(site)) {
        suspected_.insert(site);
        suspicions_.add();
        out.trigger_all(events().suspect, Message::of(site));
      }
    }
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
    // peer restarts and rejoins, the very first check sees an ancient
    // last_heard_ and suspects it instantly. And a fresh joiner with no
    // record would ride on check's lazy seeding — one full fd_timeout of
    // instant-suspicion exposure if a check never ran between the install
    // and its first packet (heard_from refreshes existing records only).
    // Prune and seed eagerly here instead.
    for (auto it = last_heard_.begin(); it != last_heard_.end();) {
      it = view_.contains(it->first) ? std::next(it) : last_heard_.erase(it);
    }
    for (SiteId site : view_.members()) {
      if (site == self_) continue;
      last_heard_.try_emplace(site, now);
    }
  });
}

void FailureDetector::heard_from(SiteId site) {
  const auto now = options().now();
  std::unique_lock snap(snap_mu_);
  const auto it = last_heard_.find(site);
  if (it == last_heard_.end()) return;
  it->second = now;
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
  return last_heard_.contains(site);
}

}  // namespace samoa::gc
