// Tunables of one group-communication node. None picks the wire format:
// every packet crosses the network marshalled by net/codec.
#pragma once

#include <chrono>

#include "cc/controller.hpp"
#include "time/clock.hpp"

namespace samoa::gc {

/// Which failure detector feeds the suspect/view-change machinery.
enum class DetectorImpl {
  kHeartbeat,  // any packet proves liveness; heartbeats only where consensus
               // waits: a site asks the silent coordinator of an open
               // instance, so an idle link carries nothing
  kSwim,       // SWIM gossip: randomized probes + piggybacked dissemination, O(n)
};

struct GcOptions {
  CCPolicy policy = CCPolicy::kVCABasic;

  /// Record the node runtime's trace (for the isolation checker).
  bool record_trace = false;

  /// Cactus-style manual synchronisation: every microprotocol guards its
  /// handlers with its own mutex. Required for memory safety under
  /// CCPolicy::kUnsync; per-object locking alone still cannot provide the
  /// cross-microprotocol isolation the paper's Section 3 race needs, which
  /// is exactly what the view-change experiment demonstrates.
  bool manual_locks = false;

  /// Artificial widening of the Section 3 race window: RelComm's
  /// viewChange handler sleeps this long *before* adopting the new view,
  /// so concurrent message processing can observe RelCast(new)/RelComm(old).
  std::chrono::microseconds view_change_delay{0};

  std::chrono::microseconds retransmit_interval{2000};
  std::chrono::microseconds retransmit_timeout{3000};
  /// Retransmission backoff: a pending entry's timeout doubles after every
  /// resend up to this cap, with a deterministic jitter (seeded by
  /// rng_seed) of up to 1/4 of the backed-off timeout added on top, so
  /// retransmissions to a slow or dead peer thin out instead of hammering
  /// at a fixed cadence. Set equal to retransmit_timeout to disable.
  std::chrono::microseconds retransmit_backoff_cap{24000};
  /// The heartbeat detector's tick: it asks every waited-on coordinator
  /// that has sent nothing for this long, and it is the least time a
  /// coordinator gets to answer before it can be suspected.
  std::chrono::microseconds heartbeat_interval{2000};
  /// A waited-on coordinator that was asked and has sent nothing since, and
  /// nothing at all for this long, is suspected.
  std::chrono::microseconds fd_timeout{10000};

  DetectorImpl detector_impl = DetectorImpl::kHeartbeat;

  /// SWIM probe protocol period: one randomized direct probe per period.
  std::chrono::microseconds swim_probe_interval{2000};
  /// Deadline for the direct ack within a period; once it passes, the
  /// prober falls back to ping-req through indirect proxies.
  /// Also the cadence of the SWIM tick (the state machine's resolution).
  std::chrono::microseconds swim_ack_timeout{600};
  std::chrono::microseconds cs_retry_interval{5000};
  std::chrono::microseconds cs_retry_timeout{8000};

  /// Seed for protocol-level randomness (currently the retransmission
  /// jitter). Each microprotocol derives its stream from (rng_seed, site),
  /// so a fleet sharing one options template still gets distinct streams.
  std::uint64_t rng_seed = 1;

  /// Incarnation epoch mixed into locally-generated MsgIds (bits 24..27 of
  /// the per-origin sequence). GroupNode bumps it on every restart so a
  /// rejoined node's fresh sequence counters can never re-issue an id its
  /// previous incarnation already used — peers would silently drop the new
  /// message as a duplicate.
  std::uint64_t id_epoch = 0;

  /// Time base for the node: timer deadlines, retransmit/failure-detector
  /// timeouts and consensus retry clocks all read this source. Null means
  /// the process wall clock; point it (and the SimNetwork) at one shared
  /// time::VirtualClock for deterministic simulation.
  time::ClockSource* clock = nullptr;

  time::ClockSource& clock_source() const {
    return clock != nullptr ? *clock : time::wall_clock();
  }
  Clock::time_point now() const { return clock_source().now(); }
};

}  // namespace samoa::gc
