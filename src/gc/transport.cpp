#include "gc/transport.hpp"

namespace samoa::gc {

Transport::Transport(const GcOptions& opts, const GcEvents& gc_events, net::SimNetwork& net,
                     SiteId self)
    : GcMicroprotocol("transport", opts, gc_events), net_(net), self_(self) {
  send_ = handle("send", [this](Outbox&, const TransportSend& req) {
    sent_.add();
    if (!std::holds_alternative<FdHeartbeat>(req.wire)) {
      std::unique_lock mirror(last_sent_mu_);
      last_sent_[req.to] = options().now();
    }
    const std::uint64_t frontier = frontier_source_ ? frontier_source_() : 0;
    net_.send(self_, req.to, net::encode_wire(self_, frontier, req.wire));
  });
}

Clock::time_point Transport::last_sent_to(SiteId peer) const {
  std::unique_lock mirror(last_sent_mu_);
  const auto it = last_sent_.find(peer);
  return it == last_sent_.end() ? Clock::time_point{} : it->second;
}

void Transport::note_peer_frontier(std::uint64_t frontier) {
  std::uint64_t seen = peer_frontier_.load(std::memory_order_relaxed);
  while (frontier > seen &&
         !peer_frontier_.compare_exchange_weak(seen, frontier, std::memory_order_release,
                                               std::memory_order_relaxed)) {
  }
}

}  // namespace samoa::gc
