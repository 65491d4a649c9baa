#include "gc/failure_detector.hpp"

#include "gc/wire.hpp"

namespace samoa::gc {

FailureDetector::FailureDetector(const GcOptions& opts, const GcEvents& events, SiteId self,
                                 View initial_view)
    : GcMicroprotocol("fd", opts), self_(self), view_(std::move(initial_view)) {
  on_heartbeat_ = &register_handler("on_heartbeat", [this](Context&, const Message& m) {
    auto lock = guard();
    const auto& fw = m.as<FromWire>();
    note_peer_frontier(std::get<FdHeartbeat>(fw.wire).frontier);
    std::unique_lock snap(snap_mu_);
    last_heard_[fw.from] = options().now();
    if (suspected_.erase(fw.from) > 0) {
      revocations_.add();  // eventually-perfect: revoke on new evidence
    }
  });

  send_heartbeats_ = &register_handler("send_heartbeats",
                                       [this, &events](Context& ctx, const Message&) {
    Outbox out;
    {
      auto lock = guard();
      ++epoch_;
      const FdHeartbeat beat{epoch_, own_frontier()};
      for (SiteId site : view_.members()) {
        if (site == self_) continue;
        out.trigger(events.transport_send, Message::of(TransportSend{site, Wire{beat}}));
      }
    }
    out.flush(ctx);
  });

  check_ = &register_handler("check", [this, &events](Context& ctx, const Message&) {
    Outbox out;
    {
      auto lock = guard();
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
          out.trigger_all(events.suspect, Message::of(site));
        }
      }
    }
    out.flush(ctx);
  });

  view_change_ = &register_handler("viewChange", [this](Context&, const Message& m) {
    auto lock = guard();
    view_ = m.as<View>();
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
    // and its first heartbeat. Prune and seed eagerly here instead.
    for (auto it = last_heard_.begin(); it != last_heard_.end();) {
      it = view_.contains(it->first) ? std::next(it) : last_heard_.erase(it);
    }
    for (SiteId site : view_.members()) {
      if (site == self_) continue;
      last_heard_.try_emplace(site, now);
    }
  });
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
