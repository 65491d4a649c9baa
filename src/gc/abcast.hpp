// Atomic broadcast on top of reliable broadcast + consensus.
//
// Submitted messages are sent once through RelCast, whose RelComm copies
// reach every member until acked or evicted; RelCast does not relay them.
// Consensus instances agree, slot by slot, on the batch delivered next,
// and the decided value carries the payloads themselves, so a site learns
// every ordered payload from the decision even if its copy never came.
// All sites deliver the same batches in the same slot order, and batches
// are sorted by message id — total order. Decisions arriving out of slot
// order are buffered until the gap closes.
#pragma once

#include <atomic>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class ABcast : public GcMicroprotocol {
 public:
  ABcast(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* submit_handler() const { return submit_; }
  const Handler* on_rdeliver_handler() const { return on_rdeliver_; }
  const Handler* on_decide_handler() const { return on_decide_; }
  const Handler* view_change_handler() const { return view_change_; }
  const Handler* on_catchup_handler() const { return on_catchup_; }

  std::uint64_t submitted() const { return submitted_.value(); }
  std::uint64_t delivered() const { return delivered_count_.value(); }
  // Readable without the microprotocol guard (atomic mirror): consensus'
  // decision pull polls this from its own handler thread.
  std::uint64_t next_instance() const { return frontier_.load(std::memory_order_acquire); }

 private:
  /// Max messages ordered per consensus instance.
  static constexpr std::size_t kMaxBatch = 16;

  void maybe_propose(Outbox& out);
  void apply_ready_decisions(Outbox& out);

  SiteId self_;
  View view_;
  std::uint64_t local_seq_ = 0;
  std::map<MsgId, AppMessage> pending_;           // buffered, not yet ordered
  std::unordered_set<MsgId> delivered_ids_;
  std::uint64_t next_instance_ = 1;
  std::atomic<std::uint64_t> frontier_{1};  // mirror of next_instance_
  std::unordered_set<std::uint64_t> proposed_;    // instances we proposed for
  std::map<std::uint64_t, ConsensusValue> decisions_;  // out-of-order buffer
  // Set by on_catchup (rejoin): this incarnation only proposes messages it
  // originated itself. An origin's RelComm copy can hand a rejoined site a
  // payload the group already delivered before its join: a site that
  // crashes and restarts without being evicted stays in the origin's
  // view, so the origin keeps retransmitting a copy the old incarnation
  // never acked, and once the join (View::with of a current member)
  // installs a view, the fresh RelComm and RelCast accept it as new. A
  // fresh delivered_ids_ cannot recognise it, and proposing it would
  // deliver it here while every peer dedup-skips it — a virtual-synchrony
  // violation. Peers that held the message legitimately propose it. With
  // nothing of its own pending, the incarnation proposes an empty batch,
  // which consensus turns into a skip of a slot it owns.
  bool rejoined_ = false;
  Counter submitted_;
  Counter delivered_count_;

  const Handler* submit_ = nullptr;
  const Handler* on_rdeliver_ = nullptr;
  const Handler* on_decide_ = nullptr;
  const Handler* view_change_ = nullptr;
  const Handler* on_catchup_ = nullptr;
};

}  // namespace samoa::gc
