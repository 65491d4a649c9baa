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
// The decided frontier that consensus's decision pull needs is no
// detector's business: it rides in every packet's header (Transport).
#pragma once

#include <cstdint>

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

  /// Suspicions withdrawn on new liveness evidence (any packet from the
  /// suspect arrives / an alive refutation with a newer incarnation
  /// gossips in) — the detector recovering from a false positive.
  virtual std::uint64_t suspicion_revocations() const = 0;
};

}  // namespace samoa::gc
