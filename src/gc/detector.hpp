// Failure-detector seam.
//
// Both detector implementations (heartbeat FailureDetector, gossip
// SwimDetector) publish suspicions the same way — triggerAll on the
// Suspect event feeding the unchanged consensus/view-change machinery —
// and expose the same introspection surface through this interface, so
// harnesses and benches can compare them without knowing which one a
// GroupNode was built with (`GcOptions::detector_impl` selects at
// runtime, `GroupNode::detector()` returns the active one).
//
// Both also carry the sender's decided frontier on every message they
// send, so that a site which lost every message of a slot learns that the
// group moved past it even when no later slot decides (Consensus's
// decision pull). The frontier is read from, and recorded into, atomic
// mirrors: no handler of another microprotocol runs, so no event's
// declaration widens.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "util/ids.hpp"

namespace samoa::gc {

class Detector {
 public:
  virtual ~Detector() = default;

  /// Is `site` currently suspected (or, for SWIM, confirmed faulty)?
  /// Safe to call from any thread (snapshot-locked inside).
  virtual bool is_suspected(SiteId site) = 0;

  /// Total suspicions raised over the detector's lifetime.
  virtual std::uint64_t suspicions() const = 0;

  /// Suspicions withdrawn on new liveness evidence (heartbeat arrives
  /// again / an alive refutation with a newer incarnation gossips in) —
  /// the detector recovering from a false positive.
  virtual std::uint64_t suspicion_revocations() const = 0;

  /// Where this site's own frontier comes from (ABcast::next_instance).
  /// Wired before the stack spawns.
  void set_frontier_source(std::function<std::uint64_t()> source) {
    frontier_source_ = std::move(source);
  }

  /// The highest frontier any peer's detector traffic has reported.
  std::uint64_t peer_frontier() const { return peer_frontier_.load(std::memory_order_acquire); }

 protected:
  std::uint64_t own_frontier() const { return frontier_source_ ? frontier_source_() : 0; }

  void note_peer_frontier(std::uint64_t frontier) {
    std::uint64_t seen = peer_frontier_.load(std::memory_order_relaxed);
    while (frontier > seen &&
           !peer_frontier_.compare_exchange_weak(seen, frontier, std::memory_order_release,
                                                 std::memory_order_relaxed)) {
    }
  }

 private:
  std::function<std::uint64_t()> frontier_source_;
  std::atomic<std::uint64_t> peer_frontier_{0};
};

}  // namespace samoa::gc
