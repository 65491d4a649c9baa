#include "cc/tso.hpp"

#include <algorithm>

#include "core/errors.hpp"
#include "diag/wait_registry.hpp"

namespace samoa {

class TSOComputationCC : public ComputationCC {
 public:
  TSOComputationCC(TSOController& ctrl, std::uint64_t ts) : ctrl_(ctrl), ts_(ts) {}

  bool allows_async() const override { return false; }

  void on_issue(HandlerId, const Handler&) override {
    // No declaration to validate: conflicts are discovered at claim time.
  }

  void before_execute(const Handler& h) override {
    const MicroprotocolId mp = h.owner().id();
    std::unique_lock lock(ctrl_.mu_);
    if (held_.contains(mp)) return;  // re-entry on an owned microprotocol
    auto& claim = ctrl_.claims_[mp];
    if (claim.held && claim.holder_ts != ts_) {
      if (ts_ > claim.holder_ts) {
        // Wait-die: the younger computation dies (rolls back + restarts,
        // keeping its timestamp); waits only ever point old -> young.
        ctrl_.restarts_.add();
        death_mp_ = mp;
        throw RestartNeeded{ts_};
      }
      // Older than the holder: park until the claim is handed to us. No
      // re-evaluation loop is needed — the holder can only ever get
      // *younger* from here (handoff goes to the youngest waiter, and a
      // free claim with waiters parked never happens), so "wait" stays
      // the right wait-die verdict until the handoff lands on us.
      ctrl_.stats_.gate_waits.add();
      ctrl_.claim_parks_.add();
      const auto start = Clock::now();
      TSOController::ClaimWaiter self;
      self.ts = ts_;
      self.comp = diag::current_computation();
      claim.waiters.push_back(&self);
      {
        diag::ScopedWait wait(diag::WaitKind::kClaim, &ctrl_, "tso-claim", ts_, ts_ + 1,
                              claim.holder_ts);
        self.cv.wait(lock, [&] { return self.granted; });
      }
      // The releaser already removed us from claim.waiters and set
      // holder_ts = ts_ with held still true; just record ownership.
      ctrl_.stats_.gate_wait_time.record(
          std::chrono::duration_cast<Nanos>(Clock::now() - start));
      held_.insert(mp);
      return;
    }
    claim.held = true;
    claim.holder_ts = ts_;
    held_.insert(mp);
    // A fresh grab can satisfy death waiters (holder now >= their ts).
    ctrl_.wake_satisfied_death_waiters_locked(claim);
  }

  void after_execute(const Handler&) override {
    // Strictness: claims are held to completion, not per call.
  }

  void on_complete() override { release_all(); }

  /// Restart path: drop every claim (the undo log rolls back afterwards),
  /// then wait — holding nothing, so no deadlock risk — until the claim
  /// that killed us is free. Retrying immediately would just die again
  /// while the older holder still runs.
  void on_abort() override {
    release_all();
    if (!death_mp_.valid()) return;
    std::unique_lock lock(ctrl_.mu_);
    auto& claim = ctrl_.claims_[death_mp_];
    if (claim.held && claim.holder_ts < ts_) {
      ctrl_.claim_parks_.add();
      TSOController::DeathWaiter self;
      self.ts = ts_;
      self.comp = diag::current_computation();
      claim.death_waiters.push_back(&self);
      {
        diag::ScopedWait wait(diag::WaitKind::kClaimAbort, &ctrl_, "tso-claim", ts_, ts_ + 1,
                              claim.holder_ts);
        self.cv.wait(lock, [&] { return self.runnable; });
      }
      std::erase(claim.death_waiters, &self);
    }
    death_mp_ = MicroprotocolId{};
  }

  std::uint64_t timestamp() const { return ts_; }

 private:
  void release_all() {
    std::unique_lock lock(ctrl_.mu_);
    for (MicroprotocolId mp : held_) {
      auto& claim = ctrl_.claims_[mp];
      if (claim.held && claim.holder_ts == ts_) ctrl_.release_claim_locked(claim);
    }
    held_.clear();
    diag::WaitRegistry::instance().note_progress();
  }

  TSOController& ctrl_;
  std::uint64_t ts_;
  std::unordered_set<MicroprotocolId> held_;
  MicroprotocolId death_mp_;  // claim that triggered the last wait-die loss
};

void TSOController::release_claim_locked(Claim& claim) {
  if (!claim.waiters.empty()) {
    // Hand off to the youngest parked waiter. Everyone left is older than
    // the new holder, so their wait verdicts are unchanged: one targeted
    // notify per release, independent of the backlog.
    auto it = std::max_element(
        claim.waiters.begin(), claim.waiters.end(),
        [](const ClaimWaiter* a, const ClaimWaiter* b) { return a->ts < b->ts; });
    ClaimWaiter* w = *it;
    claim.waiters.erase(it);
    claim.holder_ts = w->ts;  // held stays true: no fresh claimant can cut in
    w->granted = true;
    w->cv.notify_one();
    claim_wakeups_.add();
    diag::WaitRegistry::instance().note_wakeup_delivered(w->comp);
    return;
  }
  claim.held = false;
  wake_satisfied_death_waiters_locked(claim);
}

void TSOController::wake_satisfied_death_waiters_locked(Claim& claim) {
  for (DeathWaiter* d : claim.death_waiters) {
    if (d->runnable) continue;
    if (!claim.held || claim.holder_ts >= d->ts) {
      d->runnable = true;  // latch: a later re-grab must not strand the wake
      d->cv.notify_one();
      claim_wakeups_.add();
      diag::WaitRegistry::instance().note_wakeup_delivered(d->comp);
    }
  }
}

std::unique_ptr<ComputationCC> TSOController::admit(ComputationId, const Isolation&) {
  stats_.admissions.add();
  std::unique_lock lock(mu_);
  return std::make_unique<TSOComputationCC>(*this, next_ts_++);
}

}  // namespace samoa
