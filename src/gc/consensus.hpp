// Distributed consensus — the substrate under atomic broadcast.
//
// One single-decree, Paxos-style instance per slot:
//   Phase 1  coordinator sends PREPARE(i, r); acceptors promise and report
//            their highest accepted (round, value).
//   Phase 2  coordinator picks the accepted value of the highest round
//            among a majority of promises (its own proposal otherwise) and
//            sends ACCEPT(i, r, v); acceptors accept and send ACCEPTED(i, r)
//            to the round's proposer and to every in-view origin of v's
//            payloads, the instance's distinguished learners.
//   Decide   a site that holds ACCEPTED(i, r) from a majority and knows
//            r's value, because it proposed r or accepted r with its
//            cursor at i (so that it counts in slot i's view), decides at
//            once and sends DECIDE(i, v) to every other member: one wave
//            per learner. A round has one proposer and one value, so the
//            majority chose that value. Every other site learns from the
//            first DECIDE that reaches it. The origin of a payload thus
//            learns its order in three hops, everyone else in four.
//
// The coordinator of instance i, attempt a is view.member_at(i + a);
// rounds are made proposer-unique by round = (attempt + 1) * kRoundStride +
// self + 1. Attempts advance when the failure detector suspects the
// current coordinator or the retry timer finds the instance stuck, giving
// liveness under crashes and message loss (safety never depends on timing,
// as in Paxos).
//
// Attempt 0 skips phase 1 (as Mencius does for a slot's default leader):
// its round is the lowest any site can use for the slot, so no acceptor
// can hold a value phase 1 would have to adopt, and the slot's owner
// view.member_at(i) sends ACCEPT straight away. This is safe because
// exactly one site runs attempt 0: ABcast proposes into slot i only after
// applying every slot below it, view changes included, so every proposer
// computes member_at(i) from the same view (DESIGN.md, "Consensus").
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class Consensus : public GcMicroprotocol {
 public:
  Consensus(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* propose_handler() const { return propose_; }
  const Handler* on_wire_handler() const { return on_wire_; }
  const Handler* on_suspect_handler() const { return on_suspect_; }
  const Handler* retry_handler() const { return retry_; }
  const Handler* view_change_handler() const { return view_change_; }

  std::uint64_t decided_count() const { return decided_count_.value(); }
  std::uint64_t rounds_started() const { return rounds_started_.value(); }
  std::uint64_t decision_pulls() const { return decision_pulls_.value(); }

  // Decision pull (gap repair). The ordering layer above reports the
  // instance it still waits for; the retry tick pulls it when it is
  // undecided here and one of these holds:
  //   - a *later* instance has decided (the group moved past us and our
  //     copy of the DECIDE was lost);
  //   - we accepted a value for it and nothing has moved for
  //     cs_retry_timeout (the stream's last DECIDE was lost, so no later
  //     decision will ever show the gap);
  //   - a peer's packet has reported a frontier past it for
  //     cs_retry_timeout (we lost the slot's ACCEPT and every DECIDE and
  //     hold nothing to retry, e.g. because the payload's origin crashed
  //     before its copy reached us).
  // The probe is a PREPARE with round 0 — never a real round, so undecided
  // acceptors ignore it (0 <= promised), while decided sites answer any
  // prepare with the decision. The learner rule reads the same source: an
  // acceptor decides from ACCEPTEDs only the instance it waits for (see
  // learn). Both sources are wired before the stack spawns and must be
  // safe to call from the retry handler's thread without our guard.
  void set_frontier_source(std::function<std::uint64_t()> source) {
    frontier_source_ = std::move(source);
  }
  // The highest frontier a peer's packet header reported
  // (Transport::peer_frontier).
  void set_peer_frontier_source(std::function<std::uint64_t()> source) {
    peer_frontier_source_ = std::move(source);
  }

 private:
  static constexpr std::uint64_t kRoundStride = 1u << 20;

  struct Instance {
    // Acceptor state.
    std::uint64_t promised = 0;
    std::uint64_t accepted_round = 0;
    std::optional<ConsensusValue> accepted_value;
    // Proposer state.
    bool have_proposal = false;
    ConsensusValue proposal;
    std::uint64_t attempt = 0;
    std::uint64_t my_round = 0;  // 0: not coordinating
    bool phase2 = false;
    std::map<SiteId, CsPromise> promises;
    ConsensusValue chosen;
    Clock::time_point last_activity{};
    // Learner state: who reported ACCEPTED, per round; dropped once the
    // instance decides.
    std::map<std::uint64_t, std::set<SiteId>> accepted_from;
    bool decided = false;
  };

  Instance& instance(std::uint64_t i);
  void try_coordinate(Outbox& out, std::uint64_t i);
  void pull_frontier(Outbox& out, Clock::time_point now);
  void broadcast(Outbox& out, const Wire& wire);
  void to(Outbox& out, SiteId site, const Wire& wire);

  void handle_prepare(Outbox& out, SiteId from, const CsPrepare& p);
  void handle_promise(Outbox& out, SiteId from, const CsPromise& p);
  void handle_accept(Outbox& out, SiteId from, const CsAccept& a);
  void handle_accepted(Outbox& out, SiteId from, const CsAccepted& a);
  void handle_decide(Outbox& out, const CsDecide& d);
  /// The learner rule: decide instance i if a majority reported ACCEPTED
  /// for `round` and we know its value, then send our DECIDE wave.
  void learn(Outbox& out, std::uint64_t i, std::uint64_t round);
  void decide(Outbox& out, std::uint64_t i, const ConsensusValue& value);

  SiteId self_;
  View view_;
  // Every instance ever created: decided ones answer lagging coordinators
  // and decision pulls.
  std::unordered_map<std::uint64_t, Instance> instances_;
  // Undecided instances holding our proposal, ascending: all that the
  // retry tick and on_suspect have to scan.
  std::set<std::uint64_t> open_;
  std::uint64_t highest_decided_ = 0;
  Counter decided_count_;
  Counter rounds_started_;
  Counter decision_pulls_;
  std::function<std::uint64_t()> frontier_source_;
  std::function<std::uint64_t()> peer_frontier_source_;
  // The instance we waited for when the retry tick first saw a peer's
  // frontier past it, and when that was: the pull waits cs_retry_timeout
  // from then, so that a DECIDE merely still in flight is not pulled.
  std::optional<std::uint64_t> behind_on_;
  Clock::time_point behind_since_{};

  const Handler* propose_ = nullptr;
  const Handler* on_wire_ = nullptr;
  const Handler* on_suspect_ = nullptr;
  const Handler* retry_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
