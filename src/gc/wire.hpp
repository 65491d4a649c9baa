// Wire format of the group-communication stack.
//
// Everything crossing the simulated network is one of these structs inside
// a `Wire` variant. The types are value-only (no pointers into node state);
// net/codec marshals each packet to bytes before it enters the network and
// back on arrival, so the protocols never see the encoding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "gc/view.hpp"
#include "util/ids.hpp"

namespace samoa::gc {

/// Globally unique application-message id: origin site in the high bits,
/// per-origin sequence number in the low bits.
using MsgId = std::uint64_t;

inline MsgId make_msg_id(SiteId origin, std::uint64_t seq) {
  return (static_cast<MsgId>(origin.value()) << 32) | (seq & 0xFFFFFFFFull);
}
inline SiteId msg_origin(MsgId id) { return SiteId(static_cast<SiteId::value_type>(id >> 32)); }

/// Channel bits inside the per-origin sequence part of a MsgId. Several
/// broadcast layers share RelCast for dissemination; the bits keep their
/// id spaces apart and name each message's layer in the DeliverOut
/// fan-out without trusting payload bytes. ABcast's ids carry neither bit.
constexpr std::uint64_t kCausalChannelBit = 1ull << 30;  // causal broadcasts
constexpr std::uint64_t kPlainChannelBit = 1ull << 31;   // plain reliable broadcasts

/// Incarnation epoch, bits 24..27 of the per-origin sequence. A restarted
/// site wipes its volatile sequence counters; without the epoch its fresh
/// counters would re-issue MsgIds its previous incarnation already used
/// and every peer's dedup sets would silently swallow the new messages.
/// 24 bits of per-channel sequence remain — plenty for any simulated run.
inline constexpr std::uint64_t epoch_bits(std::uint64_t epoch) { return (epoch & 0xFull) << 24; }

inline bool in_channel(MsgId id, std::uint64_t bit) { return (id & bit) != 0; }

/// An atomic broadcast: consensus decides its delivery order, and it is
/// delivered only through ADeliver.
inline bool is_atomic(MsgId id) { return (id & (kCausalChannelBit | kPlainChannelBit)) == 0; }

/// An application payload travelling through RelCast / ABcast; its id
/// names its layer (see the channel bits).
struct AppMessage {
  MsgId id = 0;
  std::string data;

  friend bool operator==(const AppMessage&, const AppMessage&) = default;
};

// --- RelComm (reliable point-to-point) ---
struct RcData {
  std::uint64_t seq = 0;  // per (sender -> receiver) sequence for ack/dedup
  AppMessage body;
};
struct RcAck {
  std::uint64_t seq = 0;
};

// --- Failure detector (heartbeat) ---
/// Sent only to a peer that got no other packet from us since the
/// previous heartbeat tick: any packet proves its sender alive. It has no
/// body: its arrival, and the header every packet carries, are all it
/// tells.
struct FdHeartbeat {};

// --- Failure detector (SWIM) ---
/// Member status as disseminated by the SWIM detector. Ordering rules
/// (Das et al., see DESIGN.md "Membership"): an Alive with a higher
/// incarnation overrides Alive/Suspect with lower ones; a Suspect
/// overrides Alive of the *same* incarnation; Faulty overrides everything
/// (only a view change resurrects a confirmed-faulty member).
enum class SwimStatus : std::uint8_t { kAlive = 0, kSuspect = 1, kFaulty = 2 };

/// One piggybacked membership update. `incarnation` is the subject's
/// self-issued incarnation number — only the subject itself may bump it
/// (by refuting a suspicion), which is what makes refutation unforgeable
/// against stale gossip.
struct SwimUpdate {
  SwimStatus status = SwimStatus::kAlive;
  SiteId site;
  std::uint64_t incarnation = 0;

  friend bool operator==(const SwimUpdate&, const SwimUpdate&) = default;
};

/// Direct probe. `seq` ties the eventual ack back to the prober's
/// outstanding probe (or to a proxy's relay slot).
struct SwimPing {
  std::uint64_t seq = 0;
  std::vector<SwimUpdate> updates;
};

/// Probe acknowledgement. `on_behalf_of` names the site whose liveness
/// the ack attests: the responder itself for a direct ack, the probe
/// target when a proxy relays an indirect ack back to the origin.
struct SwimAck {
  std::uint64_t seq = 0;
  SiteId on_behalf_of;
  std::vector<SwimUpdate> updates;
};

/// Indirect-probe request: "ping `target` for me and relay its ack back
/// under my sequence number `seq`".
struct SwimPingReq {
  std::uint64_t seq = 0;
  SiteId target;
  std::vector<SwimUpdate> updates;
};

// --- Consensus (single-decree, Paxos-style, one instance per slot) ---
using ConsensusValue = std::vector<AppMessage>;

struct CsPrepare {
  std::uint64_t instance = 0;
  std::uint64_t round = 0;
};
struct CsPromise {
  std::uint64_t instance = 0;
  std::uint64_t round = 0;
  std::uint64_t accepted_round = 0;  // 0: nothing accepted yet
  std::optional<ConsensusValue> accepted_value;
};
struct CsAccept {
  std::uint64_t instance = 0;
  std::uint64_t round = 0;
  ConsensusValue value;
};
struct CsAccepted {
  std::uint64_t instance = 0;
  std::uint64_t round = 0;
};
struct CsDecide {
  std::uint64_t instance = 0;
  ConsensusValue value;
};

// --- Membership ---
/// Direct view installation for a site joining the group (the state-
/// transfer shortcut: the paper's system does a full ST protocol, we ship
/// the view plus an ordering floor — the preserved behaviour is the
/// ViewChange cascade). The floor makes a REJOIN a consistent
/// continuation: the joiner starts delivering at the consensus slot right
/// after the one that ordered its own join, so its trace neither replays
/// history nor skips messages ordered in its view. A zero floor means "no
/// catch-up" (the bootstrap install of view 1).
struct ViewInstall {
  std::uint64_t view_id = 0;
  std::vector<SiteId> members;
  std::uint64_t next_instance = 0;  // first consensus slot to apply
};

using Wire = std::variant<RcData, RcAck, FdHeartbeat, CsPrepare, CsPromise, CsAccept, CsAccepted,
                          CsDecide, ViewInstall, SwimPing, SwimAck, SwimPingReq>;

/// Human-readable wire kind, for diagnostics and drop logs.
const char* wire_kind(const Wire& wire);

/// One packet: its header and its body. Wire messages handed to handlers
/// carry the header alongside the body. Transport stamps every packet's
/// header with the sender and the sender's ABcast frontier (the first
/// consensus slot it has not applied), and GroupNode::on_packet records
/// the frontier before any handler runs (Transport::peer_frontier).
struct FromWire {
  SiteId from;
  Wire wire;
  std::uint64_t frontier = 0;
};

}  // namespace samoa::gc
