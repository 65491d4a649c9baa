#include "gc/abcast.hpp"

#include <algorithm>

#include "gc/membership.hpp"

namespace samoa::gc {

ABcast::ABcast(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view)
    : GcMicroprotocol("abcast", opts),
      events_(&events),
      self_(self),
      view_(std::move(initial_view)) {
  submit_ = &register_handler("submit", [this](Context& ctx, const Message& m) {
    Outbox out;
    {
      auto lock = guard();
      AppMessage msg{make_msg_id(self_, epoch_bits(options().id_epoch) | ++local_seq_),
                     m.as<std::string>()};
      submitted_.add();
      pending_.emplace(msg.id, msg);
      // Disseminate the payload reliably; ordering happens via consensus.
      out.trigger(events_->bcast, Message::of(msg));
      maybe_propose(out);
    }
    out.flush(ctx);
  });

  on_rdeliver_ = &register_handler("on_rdeliver", [this](Context& ctx, const Message& m) {
    Outbox out;
    {
      auto lock = guard();
      const auto& msg = m.as<AppMessage>();
      if (!is_atomic(msg.id)) return;  // plain or causal broadcast: not ours to order
      if (delivered_ids_.contains(msg.id) || pending_.contains(msg.id)) return;
      pending_.emplace(msg.id, msg);
      maybe_propose(out);
    }
    out.flush(ctx);
  });

  on_decide_ = &register_handler("on_decide", [this](Context& ctx, const Message& m) {
    Outbox out;
    {
      auto lock = guard();
      const auto& d = m.as<CsDecided>();
      decisions_.emplace(d.instance, d.value);
      apply_ready_decisions(out);
    }
    out.flush(ctx);
  });

  view_change_ = &register_handler("viewChange", [this](Context&, const Message& m) {
    auto lock = guard();
    view_ = m.as<View>();
  });

  on_catchup_ = &register_handler("on_catchup", [this](Context& ctx, const Message& m) {
    Outbox out;
    {
      auto lock = guard();
      const auto floor = m.as<std::uint64_t>();
      if (floor <= next_instance_) return;  // stale or bootstrap install
      next_instance_ = floor;
      frontier_.store(next_instance_, std::memory_order_release);
      rejoined_ = true;
      // Anything decided below the floor is pre-join history we must not
      // replay; anything we thought we proposed is void (fresh slate).
      decisions_.erase(decisions_.begin(), decisions_.lower_bound(next_instance_));
      proposed_.clear();
      maybe_propose(out);
    }
    out.flush(ctx);
  });
}

void ABcast::maybe_propose(Outbox& out) {
  if (pending_.empty()) return;
  if (proposed_.contains(next_instance_)) return;
  ConsensusValue batch;
  for (const auto& [id, msg] : pending_) {
    if (rejoined_ && msg_origin(id) != self_) continue;  // see rejoined_ in the header
    char op;
    SiteId site;
    if (Membership::decode_op(msg.data, op, site)) {
      // Membership ops ride in a slot of their own: a joiner's catch-up
      // floor is "the join op's slot + 1", which loses messages if app
      // payloads sort after the op inside the same batch. Every proposer
      // applies this rule, so no decided batch can mix them.
      if (batch.empty()) batch.push_back(msg);
      break;
    }
    batch.push_back(msg);
    if (batch.size() >= kMaxBatch) break;
  }
  if (batch.empty()) {
    // Rejoined, and every pending payload is foreign. Offer an empty batch:
    // consensus takes it only in a slot whose first round we own (a skip,
    // as in Mencius), so that slot decides at once instead of waiting a
    // retry timeout for a proposal we will never make. The slot stays
    // unmarked, so a payload of our own can still be proposed into it.
    out.trigger(events_->cs_propose, Message::of(CsPropose{next_instance_, {}}));
    return;
  }
  proposed_.insert(next_instance_);
  out.trigger(events_->cs_propose, Message::of(CsPropose{next_instance_, std::move(batch)}));
}

void ABcast::apply_ready_decisions(Outbox& out) {
  auto it = decisions_.find(next_instance_);
  while (it != decisions_.end()) {
    ConsensusValue batch = it->second;
    decisions_.erase(it);
    std::sort(batch.begin(), batch.end(),
              [](const AppMessage& a, const AppMessage& b) { return a.id < b.id; });
    for (const AppMessage& msg : batch) {
      if (!delivered_ids_.insert(msg.id).second) continue;  // duplicate slot content
      pending_.erase(msg.id);
      delivered_count_.add();
      out.trigger_all(events_->adeliver, Message::of(ADelivery{msg, next_instance_ + 1}));
    }
    proposed_.erase(next_instance_);
    ++next_instance_;
    it = decisions_.find(next_instance_);
  }
  frontier_.store(next_instance_, std::memory_order_release);
  maybe_propose(out);
}

}  // namespace samoa::gc
