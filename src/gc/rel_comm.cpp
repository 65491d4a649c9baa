#include "gc/rel_comm.hpp"

#include "util/sync.hpp"

namespace samoa::gc {

RelComm::RelComm(const GcOptions& opts, const GcEvents& gc_events, SiteId self, View initial_view)
    : GcMicroprotocol("relcomm", opts, gc_events),
      self_(self),
      view_(std::move(initial_view)),
      rng_(opts.rng_seed ^ (0x9e3779b97f4a7c15ull * (self.value() + 1))) {
  send_ = handle("send", [this](Outbox& out, const SendReq& req) {
    if (!view_.contains(req.target)) {
      // The Section 3 failure mode: with a stale local view the message
      // is silently discarded ("RelComm does not know about s").
      discarded_out_of_view_.add();
      return;
    }
    if (in_flight_[req.target] >= kFlowWindow) {
      // Flow control: out of credits for this peer — queue until acks
      // free a slot (drained in recv_ack).
      backlog_[req.target].push_back(req.m);
      flow_deferred_.add();
      return;
    }
    dispatch_send(out, req.m, req.target);
  });

  recv_data_ = handle("recv_data", [this](Outbox& out, const FromWire& fw) {
    const auto& data = std::get<RcData>(fw.wire);
    // Always acknowledge — the sender believed we were a valid target,
    // and retransmitting into a check that keeps failing helps nobody.
    out.trigger(events().transport_send,
                Message::of(TransportSend{fw.from, Wire{RcAck{data.seq}}}));
    if (!view_.contains(fw.from)) {
      discarded_unknown_sender_.add();
    } else if (seen_[fw.from].insert(data.seq).second) {
      out.async_trigger_all(events().from_rcomm, Message::of(data.body));
    }
  });

  recv_ack_ = handle("recv_ack", [this](Outbox& out, const FromWire& fw) {
    const auto& ack = std::get<RcAck>(fw.wire);
    if (unacked_.erase({fw.from, ack.seq}) == 0) return;
    unacked_count_.fetch_sub(1, std::memory_order_relaxed);
    --in_flight_[fw.from];
    // Credits freed: drain the flow-control backlog for this peer.
    auto bit = backlog_.find(fw.from);
    while (bit != backlog_.end() && !bit->second.empty() && in_flight_[fw.from] < kFlowWindow) {
      dispatch_send(out, bit->second.front(), fw.from);
      bit->second.pop_front();
    }
  });

  retransmit_ = handle("retransmit", [this](Outbox& out) {
    const auto now = options().now();
    for (auto bit = backlog_.begin(); bit != backlog_.end();) {
      bit = view_.contains(bit->first) ? std::next(bit) : backlog_.erase(bit);
    }
    for (auto it = unacked_.begin(); it != unacked_.end();) {
      Pending& p = it->second;
      if (!view_.contains(p.target)) {
        // Defence in depth: gc_evicted_peers() already dropped these at
        // the view change; anything racing in since counts the same way.
        --in_flight_[p.target];
        unacked_count_.fetch_sub(1, std::memory_order_relaxed);
        view_change_drops_.add();
        it = unacked_.erase(it);  // target evicted: give up
        continue;
      }
      if (now - p.last_sent >= p.rto) {
        p.last_sent = now;
        retransmissions_.add();
        {
          std::unique_lock snap(snap_mu_);
          ++retrans_to_[p.target];
        }
        // Capped exponential backoff with deterministic jitter: the next
        // deadline doubles (cap clamps the doubling, so compounded jitter
        // cannot drift past cap + cap/4) plus up to 1/4 extra so a fleet
        // of pendings to the same peer de-synchronises.
        auto next = p.rto * 2;
        if (next > options().retransmit_backoff_cap) next = options().retransmit_backoff_cap;
        if (next < options().retransmit_timeout) next = options().retransmit_timeout;
        p.rto = next + std::chrono::microseconds(rng_.next_below(
                           static_cast<std::uint64_t>(next.count() / 4) + 1));
        out.trigger(events().transport_send, Message::of(TransportSend{p.target, Wire{p.data}}));
      }
      ++it;
    }
  });

  // The one handler outside handle(): it triggers nothing, and it must
  // wait before taking the guard. Widened race window (Section 3
  // experiment): the new view is adopted only after this delay —
  // deliberately *outside* the manual lock, so a concurrent
  // unsynchronised send can take the lock and read the stale view while
  // RelCast already uses the new one. Under the VCA policies the whole
  // computation is isolated and the placement is irrelevant.
  view_change_ = &register_handler("viewChange", [this](Context&, const Message& m) {
    if (options().view_change_delay.count() > 0) spin_for(options().view_change_delay);
    auto lock = guard();
    {
      std::unique_lock snap(snap_mu_);
      view_ = m.as<View>();
    }
    // Per-peer state for anyone evicted from the view is dead weight at
    // best (retransmissions to a crashed site would otherwise run forever)
    // and poison at worst (a stale dedup set would silently swallow a
    // rejoined incarnation's fresh sequence numbers).
    gc_evicted_peers();
  });
}

void RelComm::gc_evicted_peers() {
  for (auto it = unacked_.begin(); it != unacked_.end();) {
    const Pending& p = it->second;
    if (view_.contains(p.target)) {
      ++it;
      continue;
    }
    --in_flight_[p.target];
    unacked_count_.fetch_sub(1, std::memory_order_relaxed);
    view_change_drops_.add();
    it = unacked_.erase(it);
  }
  const auto evicted = [this](SiteId s) { return !view_.contains(s); };
  for (auto it = backlog_.begin(); it != backlog_.end();) {
    if (evicted(it->first)) {
      view_change_drops_.add(it->second.size());
      it = backlog_.erase(it);
    } else {
      ++it;
    }
  }
  // Dedup sets and sequence counters go too, so both sides of a later
  // rejoin of an evicted site start from fresh sequence state. A site that
  // crashes and restarts without being evicted, and rejoins through
  // View::with of a current member, gets no such reset: its peers keep the
  // old incarnation's seen_ entries. Its fresh out_seq_ starts in its own
  // incarnation's range (dispatch_send), so the old entries cannot
  // swallow its new RcData.
  // retrans_to_ survives on purpose — it is a statistic, and tests sample
  // it after eviction.
  for (auto it = seen_.begin(); it != seen_.end();)
    it = evicted(it->first) ? seen_.erase(it) : std::next(it);
  for (auto it = out_seq_.begin(); it != out_seq_.end();)
    it = evicted(it->first) ? out_seq_.erase(it) : std::next(it);
  for (auto it = in_flight_.begin(); it != in_flight_.end();)
    it = evicted(it->first) ? in_flight_.erase(it) : std::next(it);
}

void RelComm::dispatch_send(Outbox& out, const AppMessage& m, SiteId target) {
  // Each incarnation numbers its sends from its own range, so a peer that
  // still holds the previous incarnation's dedup set cannot mistake them
  // for duplicates.
  const std::uint64_t seq =
      ++out_seq_.try_emplace(target, options().id_epoch << 32).first->second;
  Pending p{RcData{seq, m}, target, options().now(), options().retransmit_timeout};
  unacked_.emplace(std::make_pair(target, seq), p);
  unacked_count_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t now_in_flight = ++in_flight_[target];
  std::uint64_t peak = peak_in_flight_.load();
  while (now_in_flight > peak && !peak_in_flight_.compare_exchange_weak(peak, now_in_flight)) {
  }
  out.trigger(events().transport_send, Message::of(TransportSend{target, Wire{p.data}}));
}

View RelComm::view_snapshot() {
  std::unique_lock snap(snap_mu_);
  return view_;
}

std::uint64_t RelComm::retransmissions_to(SiteId peer) const {
  std::unique_lock snap(snap_mu_);
  auto it = retrans_to_.find(peer);
  return it == retrans_to_.end() ? 0 : it->second;
}

std::uint64_t RelComm::unacked_in_flight() const {
  return unacked_count_.load(std::memory_order_relaxed);
}

}  // namespace samoa::gc
