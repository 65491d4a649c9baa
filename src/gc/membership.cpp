#include "gc/membership.hpp"

#include <charconv>

namespace samoa::gc {

namespace {
constexpr std::string_view kPrefix = "!view";
}

std::string Membership::encode_op(char op, SiteId site) {
  return std::string(kPrefix) + op + std::to_string(site.value());
}

bool Membership::decode_op(const std::string& data, char& op, SiteId& site) {
  if (data.size() <= kPrefix.size() + 1 || data.compare(0, kPrefix.size(), kPrefix) != 0) {
    return false;
  }
  op = data[kPrefix.size()];
  if (op != '+' && op != '-') return false;
  SiteId::value_type value = 0;
  const char* begin = data.data() + kPrefix.size() + 1;
  const char* end = data.data() + data.size();
  if (std::from_chars(begin, end, value).ec != std::errc{}) return false;
  site = SiteId(value);
  return true;
}

Membership::Membership(const GcOptions& opts, const GcEvents& gc_events, SiteId self,
                       View initial_view)
    : GcMicroprotocol("membership", opts, gc_events), self_(self), view_(std::move(initial_view)) {
  history_.push_back(view_);

  joinleave_ = handle("joinleave", [this](Outbox& out, const JoinLeave& req) {
    out.trigger(events().membership_abcast, Message::of(encode_op(req.op, req.site)));
  });

  on_adeliver_ = handle("deliverView", [this](Outbox& out, const ADelivery& del) {
    char op;
    SiteId site;
    if (!decode_op(del.m.data, op, site)) return;  // ordinary application message
    const View old_view = view_;
    const View next = op == '+' ? view_.with(site) : view_.without(site);
    install(out, next);
    if (op == '+' && old_view.contains(self_)) {
      // Every member of the previous view ships the new view plus the
      // consensus catch-up floor to the joining site (state-transfer
      // shortcut). The install travels over the raw transport, so the
      // redundancy is the loss protection; del.next_ordinal — the slot
      // after the one that ordered this very join op — is identical at
      // every member, so the duplicates agree.
      out.trigger(events().transport_send,
                  Message::of(TransportSend{
                      site, Wire{ViewInstall{next.id(), next.members(), del.next_ordinal}}}));
    }
  });

  on_install_ = handle("on_install", [this](Outbox& out, const FromWire& fw) {
    const auto& vi = std::get<ViewInstall>(fw.wire);
    const View next(vi.view_id, vi.members);
    if (next.id() < view_.id()) return;  // stale install
    if (next.id() > view_.id()) {
      install(out, next);
      if (vi.next_instance > 0) joins_completed_.add();
    }
    // The floor is forwarded even when the view itself is a duplicate;
    // ABcast ignores a floor at or below its cursor.
    if (vi.next_instance > 0) {
      out.trigger(events().abcast_catchup, Message::of(vi.next_instance));
    }
  });
}

void Membership::install(Outbox& out, const View& next) {
  {
    std::unique_lock snap(snap_mu_);
    view_ = next;
    history_.push_back(next);
  }
  // Propagate the new view to every interested microprotocol — the
  // paper's synchronous triggerAll, delivering views in sequential order
  // (emitted once the membership guard is released).
  out.trigger_all(events().view_change, Message::of(next));
}

View Membership::view_snapshot() {
  std::unique_lock snap(snap_mu_);
  return view_;
}

std::vector<View> Membership::installed_views() {
  std::unique_lock snap(snap_mu_);
  return history_;
}

}  // namespace samoa::gc
