#include "gc/rel_cast.hpp"

namespace samoa::gc {

RelCast::RelCast(const GcOptions& opts, const GcEvents& gc_events, SiteId self, View initial_view)
    : GcMicroprotocol("relcast", opts, gc_events), self_(self), view_(std::move(initial_view)) {
  bcast_ = handle("bcast", [this](Outbox& out, const AppMessage& msg) {
    // No dedup mark here: the origin's own copy arrives through loopback
    // and must still look "new" to recv, which performs local delivery
    // (this matches the paper's RelCast, where only recv filters).
    broadcasts_.add();
    // One SendOut per member, self included: local delivery flows
    // through the same loopback path as remote delivery.
    for (SiteId site : view_.members()) {
      out.trigger(events().send_out, Message::of(SendReq{msg, site}));
    }
  });

  recv_ = handle("recv", [this](Outbox& out, const AppMessage& msg) {
    if (!seen_.insert(msg.id).second) return;  // not a new message
    // Rebroadcast first (all-or-nothing even if the origin crashed),
    // then deliver locally. An atomic payload is not relayed: consensus
    // carries every ordered payload to every site in its ACCEPT and
    // DECIDE values, so a relay would only send it again.
    if (!is_atomic(msg.id)) {
      for (SiteId site : view_.members()) {
        out.trigger(events().send_out, Message::of(SendReq{msg, site}));
      }
      broadcasts_.add();
    }
    out.async_trigger_all(events().deliver_out, Message::of(msg));
  });

  view_change_ = handle("viewChange", [this](Outbox&, const View& next) {
    std::unique_lock snap(snap_mu_);
    view_ = next;
  });
}

View RelCast::view_snapshot() {
  std::unique_lock snap(snap_mu_);
  return view_;
}

}  // namespace samoa::gc
