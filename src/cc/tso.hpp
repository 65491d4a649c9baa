// TSO — strict timestamp ordering with rollback and restart.
//
// The paper classifies its deadlock-free algorithms into "1) versioning
// algorithms with allocation of access to event handlers, and 2)
// timestamp-ordering algorithms with rollback/recovery", and details only
// the first group. This module implements the second group's approach:
//
//  * every computation gets a monotone timestamp at admission;
//  * the first handler call on a microprotocol p *claims* p for the
//    computation, and claims are held until the computation completes
//    (strictness: no other computation ever observes uncommitted state);
//  * conflicts resolve by wait-die — an older computation (smaller
//    timestamp) waits for the claim holder; a younger one rolls back its
//    TxVar state (undo log) and restarts with a fresh timestamp. Waits
//    only ever point old -> young, so no cycle can form: deadlock-free,
//    like the versioning family, but via restarts instead of declared
//    version order.
//
// Wakeups are targeted, not broadcast — the same discipline as
// VersionGate. Each parked computation waits on its own condition
// variable; a release *hands the claim off* to exactly one waiter — the
// youngest (largest timestamp) — and notifies only it.
// That choice is what makes one wakeup per release sufficient: every
// remaining waiter is older than the new holder (it was older than the
// grantee while both were parked), so its wait-die decision — wait, don't
// die — is unchanged and it needs no re-evaluation wakeup. The invariant
// that makes this airtight: while any claim waiter is parked, the claim
// is never released to the free state (it is handed off instead), so a
// fresh claimant — whose admission timestamp is larger than every parked
// waiter's — can never sneak in and become a holder *older* than a parked
// waiter. With the previous shared broadcast cv, each release woke every
// parked computation on every claim — O(waiters) wakeups per release,
// and under a high-fan-in pile-up (bench_tso's shape) the cost of a
// release grew with the backlog itself.
//
// Wait-die losers ("death waiters") park separately, per claim, until the
// claim that killed them is free or held by a computation at least as
// young as they are; only the releases/grabs that actually satisfy that
// predicate notify them, and the flag latches so a transiently-true
// predicate cannot be lost.
//
// The trade-offs versus the versioning family, measured in bench_tso:
//  + no declaration needed — conflicts are discovered dynamically, so an
//    unknowable M (the paper's reason to fall back from the optimised
//    variants) costs nothing;
//  - state must live in TxVar cells (rollback), computations must be
//    restartable (single-threaded, no external side effects), and heavy
//    contention burns work on restarts.
//
// Asynchronous triggers are rejected under TSO (a restart cannot recall
// an in-flight sibling task).
#pragma once

#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cc/controller.hpp"
#include "util/stats.hpp"

namespace samoa {

class TSOController : public ConcurrencyController {
 public:
  std::unique_ptr<ComputationCC> admit(ComputationId k, const Isolation& spec) override;
  const char* name() const override { return "TSO"; }

  std::uint64_t restarts() const { return restarts_.value(); }

  /// Number of claim/death waits that parked, and the number of targeted
  /// notifications delivered to them. With handoff wakeups these are equal
  /// (every delivered wakeup unparks its target) — the regression test
  /// pins claim_wakeups() <= claim_parks() to keep releases O(1) in the
  /// backlog. Under the old broadcast cv, wakeups grew as parks x releases.
  std::uint64_t claim_parks() const { return claim_parks_.value(); }
  std::uint64_t claim_wakeups() const { return claim_wakeups_.value(); }

 private:
  friend class TSOComputationCC;

  /// A parked computation older than the claim holder, waiting to be
  /// handed the claim. Stack-allocated by the waiting thread; `granted`
  /// latches the handoff (set + notified by the releaser, under mu_).
  struct ClaimWaiter {
    std::condition_variable cv;
    std::uint64_t ts = 0;
    std::uint64_t comp = 0;
    bool granted = false;
  };

  /// A wait-die loser backing off until the killer claim clears: predicate
  /// "claim free, or holder at least as young as me", latched in `runnable`
  /// by whichever release/grab makes it true.
  struct DeathWaiter {
    std::condition_variable cv;
    std::uint64_t ts = 0;
    std::uint64_t comp = 0;
    bool runnable = false;
  };

  struct Claim {
    bool held = false;
    std::uint64_t holder_ts = 0;
    std::vector<ClaimWaiter*> waiters;        // all strictly older than holder_ts
    std::vector<DeathWaiter*> death_waiters;  // wait-die losers backing off
  };

  /// Release a claim held by the caller: hand off to the youngest parked
  /// waiter if any (claim stays held), else free it and wake every death
  /// waiter. Caller holds mu_.
  void release_claim_locked(Claim& claim);
  /// Notify death waiters whose predicate the current claim state
  /// satisfies. Caller holds mu_.
  void wake_satisfied_death_waiters_locked(Claim& claim);

  std::mutex mu_;
  std::uint64_t next_ts_ = 1;
  std::unordered_map<MicroprotocolId, Claim> claims_;
  Counter restarts_;
  Counter claim_parks_;
  Counter claim_wakeups_;
};

}  // namespace samoa
