// Tunables of one group-communication node.
#pragma once

#include <chrono>

#include "cc/controller.hpp"
#include "time/clock.hpp"

namespace samoa::gc {

/// Which failure detector feeds the suspect/view-change machinery.
enum class DetectorImpl {
  kHeartbeat,  // all-to-all heartbeats, O(n^2) messages per interval
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
  std::chrono::microseconds heartbeat_interval{2000};
  std::chrono::microseconds fd_timeout{10000};

  DetectorImpl detector_impl = DetectorImpl::kHeartbeat;

  /// SWIM probe protocol period: one randomized direct probe per period.
  std::chrono::microseconds swim_probe_interval{2000};
  /// Deadline for the direct ack within a period; once it passes, the
  /// prober falls back to ping-req through `swim_indirect_k` proxies.
  /// Also the cadence of the SWIM tick (the state machine's resolution).
  std::chrono::microseconds swim_ack_timeout{600};
  /// Number of proxies asked to probe indirectly before suspecting.
  std::size_t swim_indirect_k = 3;
  /// A suspicion stands for this many probe periods before the suspect is
  /// confirmed faulty (time for an alive refutation to gossip back).
  std::uint32_t swim_suspect_periods = 3;
  /// Max membership updates piggybacked on one ping/ack/ping-req.
  std::size_t swim_piggyback_limit = 8;
  /// How many times each membership update is piggybacked before it ages
  /// out of the gossip buffer. 0 = auto: 3 * ceil(log2(view size)), the
  /// SWIM paper's lambda*log(n) dissemination budget.
  std::uint32_t swim_gossip_transmissions = 0;
  std::chrono::microseconds cs_retry_interval{5000};
  std::chrono::microseconds cs_retry_timeout{8000};

  /// Max messages ordered per consensus instance.
  std::size_t abcast_batch = 16;

  /// Flow control (paper Section 5 lists "message flow control" as part of
  /// the J-SAMOA implementation): max unacknowledged messages per peer in
  /// RelComm; further sends are queued until acks free credits. 0 = off.
  std::size_t flow_window = 32;

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

  /// Least-upper-bound used for every microprotocol when policy is
  /// VCAbound (generous over-declaration is legal; too small throws).
  std::uint32_t vca_bound = 256;

  /// Marshal every wire message to its binary network format (net/codec)
  /// before it enters the simulated network, and unmarshal on delivery —
  /// the full path a real UDP transport would take. Off by default (the
  /// in-process simulator can carry typed values directly).
  bool serialize_wire = false;

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
