// RelComm — reliable point-to-point communication (paper Section 3).
//
//   handler send (m, target): if (target in view) try to send m to target;
//   handler recv (m, sender): if (sender in view) asyncTriggerAll FromRComm m;
//   handler viewChange (new_view): view = new_view;
//
// "Try to send" is implemented with per-peer sequence numbers,
// acknowledgements, and timer-driven retransmission with capped
// exponential backoff (deterministically jittered from the seeded Rng);
// duplicate suppression keeps at-most-once delivery to the upper layers.
// Messages to targets outside the current view are silently discarded —
// the behaviour at the heart of the Section 3 consistency problem — and
// counted so experiments can observe exactly when the race bites.
//
// Crash-recovery hygiene: the viewChange handler garbage-collects every
// per-peer structure (unacked entries, flow-control backlog, dedup sets,
// sequence counters) for peers evicted from the view, so retransmissions
// to a dead peer stop at the view change instead of running forever, and
// a later re-join of the same site starts from clean sequence state on
// both sides. A site restarted without eviction gets no such reset; its
// sequence numbers start in its incarnation's own range instead (the
// epoch in the upper 32 bits), so peers that kept the old incarnation's
// dedup sets still accept them.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class RelComm : public GcMicroprotocol {
 public:
  /// Flow control (paper Section 5 lists "message flow control" as part of
  /// the J-SAMOA implementation): max unacknowledged messages per peer;
  /// further sends are queued until acks free credits.
  static constexpr std::size_t kFlowWindow = 32;

  RelComm(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* send_handler() const { return send_; }
  const Handler* recv_data_handler() const { return recv_data_; }
  const Handler* recv_ack_handler() const { return recv_ack_; }
  const Handler* retransmit_handler() const { return retransmit_; }
  const Handler* view_change_handler() const { return view_change_; }

  /// Messages dropped because the target was not in the (possibly stale)
  /// local view — the Section 3 failure mode.
  std::uint64_t discarded_out_of_view() const { return discarded_out_of_view_.value(); }
  std::uint64_t discarded_unknown_sender() const { return discarded_unknown_sender_.value(); }
  std::uint64_t retransmissions() const { return retransmissions_.value(); }
  /// Retransmissions addressed to one specific peer — lets a chaos test
  /// assert that the counter stops growing once the peer left the view.
  std::uint64_t retransmissions_to(SiteId peer) const;
  /// Unacked/backlog entries dropped (and per-peer state wiped) because
  /// their target was evicted from the view.
  std::uint64_t view_change_drops() const { return view_change_drops_.value(); }
  std::uint64_t unacked_in_flight() const;
  /// Flow control introspection: sends deferred for lack of credits, and
  /// the peak per-peer in-flight count ever observed.
  std::uint64_t flow_deferred() const { return flow_deferred_.value(); }
  std::uint64_t peak_in_flight_per_peer() const { return peak_in_flight_.load(); }
  View view_snapshot();

 private:
  struct Pending {
    RcData data;
    SiteId target;
    Clock::time_point last_sent;
    std::chrono::microseconds rto{0};  // current (backed-off) timeout
  };

  void dispatch_send(Outbox& out, const AppMessage& m, SiteId target);
  /// Drop per-peer state for every peer outside `view_`; counts into
  /// view_change_drops_. Call with the guard held.
  void gc_evicted_peers();

  SiteId self_;
  View view_;
  Rng rng_;  // retransmission jitter; draws only inside handlers
  std::unordered_map<SiteId, std::uint64_t> out_seq_;
  std::map<std::pair<SiteId, std::uint64_t>, Pending> unacked_;  // (target, seq)
  std::unordered_map<SiteId, std::uint64_t> in_flight_;          // per-peer unacked count
  std::unordered_map<SiteId, std::deque<AppMessage>> backlog_;   // waiting for credits
  std::unordered_map<SiteId, std::set<std::uint64_t>> seen_;     // per-sender dedup
  std::unordered_map<SiteId, std::uint64_t> retrans_to_;  // per-peer retransmissions
  Counter discarded_out_of_view_;
  Counter discarded_unknown_sender_;
  Counter retransmissions_;
  Counter view_change_drops_;
  Counter flow_deferred_;
  std::atomic<std::uint64_t> peak_in_flight_{0};
  std::atomic<std::uint64_t> unacked_count_{0};  // mirror of unacked_.size() for cross-thread reads
  mutable std::mutex snap_mu_;  // guards cross-thread snapshots only

  const Handler* send_ = nullptr;
  const Handler* recv_data_ = nullptr;
  const Handler* recv_ack_ = nullptr;
  const Handler* retransmit_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
