#include "gc/consensus.hpp"

#include <algorithm>

#include "gc/wire.hpp"

namespace samoa::gc {

Consensus::Consensus(const GcOptions& opts, const GcEvents& gc_events, SiteId self,
                     View initial_view)
    : GcMicroprotocol("consensus", opts, gc_events), self_(self), view_(std::move(initial_view)) {
  propose_ = handle("propose", [this](Outbox& out, const CsPropose& req) {
    // An empty batch is a skip (see ABcast::maybe_propose): taken only by
    // the slot's owner, for its first round, and never retried.
    const bool skip = req.value.empty();
    if (skip && (view_.size() == 0 || view_.member_at(req.instance) != self_)) return;
    Instance& inst = instance(req.instance);
    if (inst.decided || inst.have_proposal) return;
    inst.have_proposal = true;
    inst.proposal = req.value;
    inst.last_activity = options().now();
    if (!skip) open_.insert(req.instance);
    try_coordinate(out, req.instance);
    mirror_waits();
  });

  on_wire_ = handle("on_wire", [this](Outbox& out, const FromWire& fw) {
    last_wire_ = options().now();
    std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, CsPrepare>) {
            handle_prepare(out, fw.from, msg);
          } else if constexpr (std::is_same_v<T, CsPromise>) {
            handle_promise(out, fw.from, msg);
          } else if constexpr (std::is_same_v<T, CsAccept>) {
            handle_accept(out, fw.from, msg);
          } else if constexpr (std::is_same_v<T, CsAccepted>) {
            handle_accepted(out, fw.from, msg);
          } else if constexpr (std::is_same_v<T, CsDecide>) {
            handle_decide(out, msg);
          }
        },
        fw.wire);
  });

  on_suspect_ = handle("on_suspect", [this](Outbox& out, const SiteId& suspected) {
    if (view_.size() == 0) return;
    for (const std::uint64_t i : open_) {
      Instance& inst = instances_.at(i);
      if (coordinator(i, inst) == suspected) {
        ++inst.attempt;
        try_coordinate(out, i);
      }
    }
    mirror_waits();
  });

  retry_ = handle("retry", [this](Outbox& out) {
    const auto now = options().now();
    // Before the loop below refreshes last_activity: our own retries are
    // not progress, and a site whose next attempt belongs to someone else
    // would otherwise wait a whole rotation for a decision it could pull.
    pull_frontier(out, now);
    for (const std::uint64_t i : open_) {
      Instance& inst = instances_.at(i);
      if (now - inst.last_activity < options().cs_retry_timeout) continue;
      // Stuck: either our own round's messages were lost, or a remote
      // coordinator stalled. Advance the attempt and retry.
      ++inst.attempt;
      inst.last_activity = now;
      try_coordinate(out, i);
    }
    mirror_waits();
  });

  view_change_ = handle("viewChange", [this](Outbox&, const View& next) {
    view_ = next;
    mirror_waits();
  });
}

Consensus::Instance& Consensus::instance(std::uint64_t i) { return instances_[i]; }

std::vector<SiteId> Consensus::waits() const {
  std::lock_guard lock(waits_mu_);
  return waits_;
}

void Consensus::mirror_waits() {
  if (!suspect_source_) return;
  std::vector<SiteId> waits;
  if (view_.size() > 0) {
    for (const std::uint64_t i : open_) {
      const SiteId coord = coordinator(i, instances_.at(i));
      if (coord != self_ && std::find(waits.begin(), waits.end(), coord) == waits.end()) {
        waits.push_back(coord);
      }
    }
  }
  std::lock_guard lock(waits_mu_);
  waits_ = std::move(waits);
}

void Consensus::broadcast(Outbox& out, const Wire& wire) {
  for (SiteId site : view_.members()) {
    out.trigger(events().transport_send, Message::of(TransportSend{site, wire}));
  }
}

void Consensus::to(Outbox& out, SiteId site, const Wire& wire) {
  out.trigger(events().transport_send, Message::of(TransportSend{site, wire}));
}

void Consensus::try_coordinate(Outbox& out, std::uint64_t i) {
  Instance& inst = instance(i);
  if (inst.decided || !inst.have_proposal || view_.size() == 0) return;
  // We never suspect ourselves, so a full turn of the view ends the skip
  // at our own attempt whenever we are a member.
  for (std::size_t n = 0; suspect_source_ && n < view_.size(); ++n) {
    if (!suspect_source_(coordinator(i, inst))) break;
    ++inst.attempt;
  }
  if (coordinator(i, inst) != self_) return;
  inst.my_round = (inst.attempt + 1) * kRoundStride + self_.value() + 1;
  inst.promises.clear();
  inst.last_activity = options().now();
  rounds_started_.add();
  if (inst.attempt == 0) {
    // The owner's first round is below every other round of the slot, so
    // phase 1 has nothing to find: propose our own value right away.
    inst.chosen = inst.proposal;
    inst.phase2 = true;
    broadcast(out, Wire{CsAccept{i, inst.my_round, inst.chosen}});
    return;
  }
  inst.phase2 = false;
  broadcast(out, Wire{CsPrepare{i, inst.my_round}});
}

void Consensus::pull_frontier(Outbox& out, Clock::time_point now) {
  // The retry loop only heals instances we hold a proposal for, and only
  // once an attempt comes round to us. A site that missed a DECIDE *and*
  // has nothing to propose into the slot (a rejoined member whose pending
  // filter withholds foreign payloads, or a site the payload never
  // reached) would stall forever, so probe the frontier instance once the
  // group has visibly moved past it, once we accepted a value for it that
  // has sat idle for a retry timeout, or once a peer has reported a
  // frontier past it for a retry timeout. See set_frontier_source.
  if (!frontier_source_) return;
  const std::uint64_t want = frontier_source_();
  const auto it = instances_.find(want);
  const Instance* inst = it == instances_.end() ? nullptr : &it->second;
  if (inst != nullptr && inst->decided) return;
  // A site outside its own view (evicted, or restarted and not yet
  // rejoined) must not learn the group's slots this way: it would deliver
  // them in a view it is not a member of.
  const bool peer_past = peer_frontier_source_ && view_.contains(self_) &&
                         peer_frontier_source_() > want;
  if (!peer_past) {
    behind_on_.reset();
  } else if (behind_on_ != want) {
    behind_on_ = want;
    behind_since_ = now;
  }
  const bool moved_past = highest_decided_ > want;
  const bool idle_accept = inst != nullptr && inst->accepted_value &&
                           now - inst->last_activity >= options().cs_retry_timeout;
  // With the heartbeat detector an idle link carries nothing, so the
  // header that shows a lost last slot comes only from the detector's
  // idle probe, after cs_retry_timeout of silence. A site that has had no
  // consensus packet for that long has no DECIDE in flight to wait for.
  const bool quiet = suspect_source_ && now - last_wire_ >= options().cs_retry_timeout;
  const bool peer_idle =
      peer_past && (quiet || now - behind_since_ >= options().cs_retry_timeout);
  if (!moved_past && !idle_accept && !peer_idle) return;
  decision_pulls_.add();
  broadcast(out, Wire{CsPrepare{want, 0}});
}

void Consensus::handle_prepare(Outbox& out, SiteId from, const CsPrepare& p) {
  Instance& inst = instance(p.instance);
  if (inst.decided) {
    // Help a lagging coordinator (or answer a round-0 decision pull):
    // re-send the decision instead of playing another round.
    to(out, from, Wire{CsDecide{p.instance, inst.accepted_value.value_or(ConsensusValue{})}});
    return;
  }
  // Stale rounds — including round-0 pull probes — must not count as
  // activity, or periodic probes would forever suppress the retry timer.
  if (p.round <= inst.promised) return;
  inst.last_activity = options().now();
  inst.promised = p.round;
  to(out, from,
     Wire{CsPromise{p.instance, p.round, inst.accepted_round, inst.accepted_value}});
}

void Consensus::handle_promise(Outbox& out, SiteId from, const CsPromise& p) {
  Instance& inst = instance(p.instance);
  if (inst.decided) {
    // The promiser was undecided when it answered: tell it the decision.
    if (from != self_) {
      to(out, from, Wire{CsDecide{p.instance, inst.accepted_value.value_or(ConsensusValue{})}});
    }
    return;
  }
  if (inst.phase2 || p.round != inst.my_round) return;
  inst.promises.emplace(from, p);
  if (inst.promises.size() < view_.majority()) return;
  // Phase 2: adopt the value of the highest accepted round, if any.
  const CsPromise* best = nullptr;
  for (const auto& [site, promise] : inst.promises) {
    (void)site;
    if (promise.accepted_value &&
        (best == nullptr || promise.accepted_round > best->accepted_round)) {
      best = &promise;
    }
  }
  inst.chosen = best != nullptr ? *best->accepted_value : inst.proposal;
  inst.phase2 = true;
  inst.last_activity = options().now();
  broadcast(out, Wire{CsAccept{p.instance, inst.my_round, inst.chosen}});
}

void Consensus::handle_accept(Outbox& out, SiteId from, const CsAccept& a) {
  Instance& inst = instance(a.instance);
  inst.last_activity = options().now();
  if (inst.decided) {
    to(out, from, Wire{CsDecide{a.instance, inst.accepted_value.value_or(ConsensusValue{})}});
    return;
  }
  if (a.round < inst.promised) return;
  inst.promised = a.round;
  inst.accepted_round = a.round;
  inst.accepted_value = a.value;
  // Report to the distinguished learners: the round's proposer and every
  // in-view origin of the batch, each once.
  const Wire accepted{CsAccepted{a.instance, a.round}};
  to(out, from, accepted);
  for (auto m = a.value.begin(); m != a.value.end(); ++m) {
    const SiteId origin = msg_origin(m->id);
    const auto same_origin = [&](const AppMessage& e) { return msg_origin(e.id) == origin; };
    if (origin == from || std::any_of(a.value.begin(), m, same_origin) ||
        !view_.contains(origin)) {
      continue;
    }
    to(out, origin, accepted);
  }
  // A majority of ACCEPTEDs for this round may have overtaken its ACCEPT.
  learn(out, a.instance, a.round);
}

void Consensus::handle_accepted(Outbox& out, SiteId from, const CsAccepted& a) {
  Instance& inst = instance(a.instance);
  if (inst.decided) return;
  inst.accepted_from[a.round].insert(from);
  learn(out, a.instance, a.round);
}

void Consensus::learn(Outbox& out, std::uint64_t i, std::uint64_t round) {
  Instance& inst = instance(i);
  // A site outside its own view must not decide the group's slots (see
  // pull_frontier).
  if (inst.decided || !view_.contains(self_)) return;
  const auto it = inst.accepted_from.find(round);
  if (it == inst.accepted_from.end() || it->second.size() < view_.majority()) return;
  // A round has one proposer and one value: if we proposed it or accepted
  // it, the value we hold for it is the one the majority accepted. The
  // majority must be one of slot i's view. A proposer holds that view: it
  // proposed at its cursor i. An acceptor holds it only while its cursor is
  // at i; one that has not applied every slot below i may still hold an
  // older, smaller view, and one a catch-up floor moved past i never
  // applied i's.
  const ConsensusValue* value = nullptr;
  if (inst.phase2 && inst.my_round == round) {
    value = &inst.chosen;
  } else if (inst.accepted_round == round && frontier_source_ && frontier_source_() == i) {
    value = &*inst.accepted_value;
  } else {
    return;
  }
  // One DECIDE wave per learner: the proposer's and each origin's hedge
  // one another against a lost copy.
  const Wire decision{CsDecide{i, *value}};
  for (SiteId site : view_.members()) {
    if (site != self_) to(out, site, decision);
  }
  decide(out, i, *value);
}

void Consensus::handle_decide(Outbox& out, const CsDecide& d) {
  Instance& inst = instance(d.instance);
  if (inst.decided) return;
  // A decided site answered our phase 1: the sites that promised it were
  // undecided, and no DECIDE wave of ours will reach them.
  if (!inst.phase2) {
    for (const auto& [site, promise] : inst.promises) {
      if (site != self_) to(out, site, Wire{d});
    }
  }
  decide(out, d.instance, d.value);
}

void Consensus::decide(Outbox& out, std::uint64_t i, const ConsensusValue& value) {
  Instance& inst = instance(i);
  inst.decided = true;
  inst.accepted_value = value;
  inst.accepted_from.clear();
  if (open_.erase(i) > 0) mirror_waits();
  highest_decided_ = std::max(highest_decided_, i);
  decided_count_.add();
  out.trigger(events().cs_decided, Message::of(CsDecided{i, value}));
}

}  // namespace samoa::gc
