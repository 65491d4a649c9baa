// Transport microprotocol: the boundary between the event world and the
// simulated network. Other microprotocols emit TransportSend events; this
// is the only component that talks to SimNetwork directly, so network
// access is itself gated by the isolation declarations like any other
// microprotocol state. It marshals every message to its network format
// (net::encode_wire) and hands the bytes to the network;
// GroupNode::on_packet decodes them on the other side.
//
// Every packet carries a header (FromWire): the sender and the sender's
// decided frontier. Transport stamps it, and keeps the highest frontier any
// received header reported: a mirror that GroupNode::on_packet records and
// Consensus's decision pull polls outside any declaration, so that no
// event's declaration widens.
#pragma once

#include <atomic>
#include <functional>

#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "net/codec.hpp"
#include "net/sim_network.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class Transport : public GcMicroprotocol {
 public:
  Transport(const GcOptions& opts, const GcEvents& events, net::SimNetwork& net, SiteId self);

  const Handler* send_handler() const { return send_; }
  std::uint64_t sent() const { return sent_.value(); }

  /// Where this site's own frontier comes from (ABcast::next_instance).
  /// Wired before the stack spawns.
  void set_frontier_source(std::function<std::uint64_t()> source) {
    frontier_source_ = std::move(source);
  }

  /// Record a received packet's frontier. Safe to call from any thread.
  void note_peer_frontier(std::uint64_t frontier);
  /// The highest frontier any received packet reported.
  std::uint64_t peer_frontier() const { return peer_frontier_.load(std::memory_order_acquire); }

 private:
  net::SimNetwork& net_;
  SiteId self_;
  Counter sent_;
  std::function<std::uint64_t()> frontier_source_;
  std::atomic<std::uint64_t> peer_frontier_{0};
  const Handler* send_ = nullptr;
};

}  // namespace samoa::gc
