#include "gc/abcast.hpp"

#include <algorithm>

#include "gc/membership.hpp"

namespace samoa::gc {

ABcast::ABcast(const GcOptions& opts, const GcEvents& gc_events, SiteId self, View initial_view)
    : GcMicroprotocol("abcast", opts, gc_events), self_(self), view_(std::move(initial_view)) {
  submit_ = handle("submit", [this](Outbox& out, const std::string& data) {
    AppMessage msg{make_msg_id(self_, epoch_bits(options().id_epoch) | ++local_seq_), data};
    submitted_.add();
    pending_.emplace(msg.id, msg);
    // Disseminate the payload reliably; ordering happens via consensus.
    out.trigger(events().bcast, Message::of(msg));
    maybe_propose(out);
  });

  on_rdeliver_ = handle("on_rdeliver", [this](Outbox& out, const AppMessage& msg) {
    if (!is_atomic(msg.id)) return;  // plain or causal broadcast: not ours to order
    if (delivered_ids_.contains(msg.id) || pending_.contains(msg.id)) return;
    pending_.emplace(msg.id, msg);
    maybe_propose(out);
  });

  on_decide_ = handle("on_decide", [this](Outbox& out, const CsDecided& d) {
    decisions_.emplace(d.instance, d.value);
    apply_ready_decisions(out);
  });

  view_change_ = handle("viewChange", [this](Outbox&, const View& next) { view_ = next; });

  on_catchup_ = handle("on_catchup", [this](Outbox& out, const std::uint64_t& floor) {
    if (floor <= next_instance_) return;  // stale or bootstrap install
    next_instance_ = floor;
    frontier_.store(next_instance_, std::memory_order_release);
    rejoined_ = true;
    // Anything decided below the floor is pre-join history we must not
    // replay; anything we thought we proposed is void (fresh slate).
    decisions_.erase(decisions_.begin(), decisions_.lower_bound(next_instance_));
    proposed_.clear();
    maybe_propose(out);
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
    out.trigger(events().cs_propose, Message::of(CsPropose{next_instance_, {}}));
    return;
  }
  proposed_.insert(next_instance_);
  out.trigger(events().cs_propose, Message::of(CsPropose{next_instance_, std::move(batch)}));
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
      out.trigger_all(events().adeliver, Message::of(ADelivery{msg, next_instance_ + 1}));
    }
    proposed_.erase(next_instance_);
    ++next_instance_;
    it = decisions_.find(next_instance_);
  }
  frontier_.store(next_instance_, std::memory_order_release);
  maybe_propose(out);
}

}  // namespace samoa::gc
