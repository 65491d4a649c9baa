#include "gc/transport.hpp"

namespace samoa::gc {

Transport::Transport(const GcOptions& opts, const GcEvents& gc_events, net::SimNetwork& net,
                     SiteId self)
    : GcMicroprotocol("transport", opts, gc_events), net_(net), self_(self) {
  send_ = handle("send", [this](Outbox&, const TransportSend& req) {
    sent_.add();
    const std::uint64_t frontier = frontier_source_ ? frontier_source_() : 0;
    net_.send(self_, req.to, net::encode_wire(self_, frontier, req.wire));
  });
}

void Transport::note_peer_frontier(std::uint64_t frontier) {
  std::uint64_t seen = peer_frontier_.load(std::memory_order_relaxed);
  while (frontier > seen &&
         !peer_frontier_.compare_exchange_weak(seen, frontier, std::memory_order_release,
                                               std::memory_order_relaxed)) {
  }
}

}  // namespace samoa::gc
