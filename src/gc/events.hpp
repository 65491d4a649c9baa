// Event vocabulary of one group-communication node.
//
// Each GroupNode owns one instance of GcEvents: the internal and external
// event types wiring its microprotocols together, mirroring the paper's
// Section 3 code (SendOut, FromRComm, Bcast, DeliverOut, ViewChange, ...).
#pragma once

#include "core/event.hpp"
#include "gc/wire.hpp"

namespace samoa::gc {

/// Request to send `m` to `target` through reliable point-to-point
/// communication (the argument of the paper's SendOut event).
struct SendReq {
  AppMessage m;
  SiteId target;
};

/// Request to push a wire message onto the network.
struct TransportSend {
  SiteId to;
  Wire wire;
};

/// Internal consensus kick: "agree on `value` for slot `instance`".
struct CsPropose {
  std::uint64_t instance = 0;
  ConsensusValue value;
};

/// Consensus outcome handed to the atomic broadcast layer.
struct CsDecided {
  std::uint64_t instance = 0;
  ConsensusValue value;
};

/// A membership operation (the paper's joinleave handler arguments).
struct JoinLeave {
  char op = '+';  // '+' join, '-' leave
  SiteId site;
};

/// Total-order delivery handed to Membership and the application sink.
/// `next_ordinal` is the consensus slot right after the one that ordered
/// this message: when the message is a join op, that is exactly the
/// catch-up floor Membership must ship to the joining site — and unlike
/// the deliverer's own ordering cursor it is identical at every member,
/// whatever else each one has buffered.
struct ADelivery {
  AppMessage m;
  std::uint64_t next_ordinal = 0;
};

struct GcEvents {
  // External (network / timers / API). A plain heartbeat packet has no
  // event: GroupNode::on_packet records what every packet tells (its sender
  // is alive, and its sender's frontier) without spawning a computation.
  // A heartbeat request spawns one, which answers it.
  EventType rc_data{"net.RcData"};
  EventType rc_ack{"net.RcAck"};
  EventType fd_request{"net.FdRequest"};
  EventType swim_wire{"net.Swim"};
  EventType cs_wire{"net.Consensus"};
  EventType view_install{"net.ViewInstall"};
  EventType retransmit_tick{"tick.Retransmit"};
  EventType heartbeat_tick{"tick.Heartbeat"};
  EventType swim_tick{"tick.SwimProbe"};
  EventType cs_retry_tick{"tick.CsRetry"};
  EventType api_abcast{"api.ABcast"};
  EventType api_rbcast{"api.Bcast"};
  EventType api_ccast{"api.CCast"};
  EventType api_joinleave{"api.JoinLeave"};

  // Internal (between microprotocols):
  EventType send_out{"SendOut"};          // -> RelComm.send
  EventType from_rcomm{"FromRComm"};      // -> RelCast.recv (triggerAll)
  EventType bcast{"Bcast"};               // -> RelCast.bcast
  EventType deliver_out{"DeliverOut"};    // -> ABcast.on_rdeliver + app sink
  EventType adeliver{"ADeliver"};         // -> Membership.deliverView + app sink
  EventType causal_deliver{"CDeliver"};   // -> app sink (causal order)
  EventType view_change{"ViewChange"};    // -> every view-holding microprotocol
  EventType suspect{"Suspect"};           // -> Consensus.on_suspect
  EventType cs_propose{"CsPropose"};      // -> Consensus.propose
  EventType cs_decided{"CsDecided"};      // -> ABcast.on_decide
  EventType transport_send{"Transport"};  // -> Transport.send
  // Rejoin catch-up floor extracted from a received ViewInstall: ABcast
  // fast-forwards its delivery cursor so the rejoined site continues the
  // total order instead of replaying or stalling.
  EventType abcast_catchup{"ABcastCatchup"};  // -> ABcast.on_catchup
  /// Membership's own submit path into ABcast: view operations are
  /// ordered with the application's messages, but enter from Membership's
  /// joinleave handler rather than through the api.ABcast external event.
  EventType membership_abcast{"MembershipABcast"};  // -> ABcast.submit
};

}  // namespace samoa::gc
