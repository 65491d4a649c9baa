// Version gates — the shared half of the versioning algorithms.
//
// Each microprotocol p has one gate holding the pair of counters from the
// paper: the global version gv_p (bumped at admission, Step 1) and the
// local version lv_p (the version currently allowed to run, upgraded at
// completion, Step 3, or incrementally by VCAbound's Rule 4 / VCAroute's
// Rule 4(b)).
//
// The counters live in a cache-line-padded VersionCell and are plain
// atomics, so the no-conflict hot path takes no locks:
//
//   * admit (Step 1) is one fetch_add on gv — the per-microprotocol ticket
//     that makes single-microprotocol admissions atomic by construction;
//   * before_execute's gate check is one acquire load of lv;
//   * a publish (Step 3 / Rule 4) is a seqlock-style release of lv — an
//     atomic store/CAS followed by a sleeper check — that only falls back
//     to the gate mutex when a waiter is parked or a deferred upgrade is
//     scheduled.
//
// The mutex now guards only the slow half: the waiter lists and the
// deferred-upgrade map. The lost-wakeup hazard of the split (a waiter
// registering while a lock-free publisher races past) is closed with a
// Dekker-style handshake on seq_cst atomics: a waiter bumps `sleepers_`
// *before* re-checking lv, a publisher stores lv *before* loading
// `sleepers_`; in the single total order of seq_cst operations at least
// one side observes the other, so either the waiter sees the new lv and
// never parks, or the publisher sees the sleeper and takes the wake path.
// The same handshake covers `deferred_n_` so a lock-free publish can never
// step over a just-scheduled Rule 4(b) trigger.
//
// `schedule_set` implements VCAroute's early release correctly: Rule 4(b)
// says "upgrade lv_p = pv[p]_k", but doing so before lv_p has reached
// pv[p]_k - 1 would skip over older computations' turns and break the
// version order the correctness proofs rely on. The deferred upgrade fires
// the moment lv_p reaches (or, with lock-free publishers stepping several
// versions, crosses) the scheduled trigger value.
//
// Wakeups are targeted, not broadcast. Every waiter parks on its own
// condition variable, registered under the version it awaits; a publish
// notifies only the waiter(s) whose window the new lv satisfies. With a
// shared cv + notify_all, each publish woke every parked computation so
// one could proceed — O(waiters) wakeups and gate-mutex reacquisitions
// per version. Under a backlog (the E2 join-flood convoy) that makes the
// cost of a publish grow with the backlog itself, and once publish cost
// times backlog outpaces admission inflow the gate livelocks: the process
// looks deadlocked while one thread broadcasts to thousands of waiters
// that cannot proceed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cc/controller.hpp"
#include "core/errors.hpp"
#include "diag/wait_registry.hpp"
#include "util/ids.hpp"

namespace samoa {

/// Thrown out of wait_exact/wait_window when the parked waiter was revoked
/// by cancel_waiters() (computation aborted — e.g. by a chaos fault plan —
/// while parked). The computation must unwind without touching the gated
/// microprotocol: its version slot is still owned by whoever cleans up the
/// aborted computation.
class WaitCancelled : public SamoaError {
 public:
  explicit WaitCancelled(const std::string& what) : SamoaError(what) {}
};

class VersionGate : public diag::HolderSource {
 public:
  VersionGate();
  ~VersionGate() override;

  /// Step 1: gv += delta; returns the upgraded gv (the computation's
  /// private version pv for this microprotocol). One fetch_add — callers
  /// need no lock for a single-microprotocol admission; multi-microprotocol
  /// admissions hold the admission_mutex() of every member gate in mp-id
  /// order (see OrderedAdmission) so the version order between any two
  /// computations is identical on every shared microprotocol. A nonzero
  /// `comp` is recorded (lock-free) as the holder that will publish `pv`,
  /// for blocked-state dumps.
  std::uint64_t admit(std::uint64_t delta, std::uint64_t comp = 0);

  /// Rule 2 of VCAbasic/VCAroute: block until lv == pv - 1. `who` names
  /// the gated microprotocol in blocked-state dumps. Lock-free when the
  /// version is already current. Throws WaitCancelled if the park was
  /// revoked by cancel_waiters().
  void wait_exact(std::uint64_t pv_minus_1, CCStats& stats, const char* who = "");

  /// Rule 2 of VCAbound: block until lo <= lv < hi.
  void wait_window(std::uint64_t lo, std::uint64_t hi, CCStats& stats, const char* who = "");

  /// Step 3: lv = v (monotone; asserts no downgrade), then fire deferred
  /// upgrades and wake waiters. Lock-free when nobody is parked and no
  /// deferred upgrade is scheduled.
  void set_lv(std::uint64_t v);

  /// VCAbound Rule 4: ++lv.
  void increment_lv();

  /// VCAroute Rule 4(b): when lv reaches (or crosses) `trigger`, set
  /// lv = max(lv, `to`). Applied immediately if lv >= trigger already.
  void schedule_set(std::uint64_t trigger, std::uint64_t to);

  std::uint64_t lv() const { return cell_.lv.load(std::memory_order_acquire); }
  std::uint64_t gv() const { return cell_.gv.load(std::memory_order_acquire); }

  /// Revoke every parked wait belonging to computation `comp`: the waiter
  /// is unhooked from the gate immediately (so later publishes can never
  /// touch, wake or count a stale entry) and unwinds with WaitCancelled.
  /// Returns the number of waits revoked. Cancel notifications are not
  /// wakeup deliveries: they do not count into wakeups_delivered() and are
  /// not reported to the schedule explorer's accounting.
  std::size_t cancel_waiters(std::uint64_t comp);

  /// Number of waiter wakeups delivered so far, counted once per park (a
  /// window waiter notified at several intermediate lv values of a
  /// deferred chain still counts once). With targeted wakeups this is
  /// bounded by the number of waits ever parked — the regression tests pin
  /// that bound to keep the publish path O(1) in the backlog.
  std::uint64_t wakeups_delivered() const;

  /// Publish-path split, the scoreboard for the lock-free fast path: a
  /// fast publish updated lv without touching the gate mutex (no parked
  /// waiter, no deferred upgrade); a slow publish took the mutex to wake /
  /// fire deferred upgrades.
  std::uint64_t fast_publishes() const { return fast_publishes_.load(std::memory_order_relaxed); }
  std::uint64_t slow_publishes() const { return slow_publishes_.load(std::memory_order_relaxed); }

  /// Admission lock for the lock-ordered multi-microprotocol slow path.
  /// Never taken by single-mp admissions, waits or publishes.
  std::mutex& admission_mutex() { return admit_mu_; }

  // -- diag::HolderSource --
  std::uint64_t last_published() const override { return lv(); }
  std::vector<diag::HolderEntry> outstanding_holders() const override;

 private:
  /// gv/lv pair plus the Dekker counters, padded to a cache line so gates
  /// of different microprotocols never false-share.
  struct alignas(64) VersionCell {
    std::atomic<std::uint64_t> gv{0};
    std::atomic<std::uint64_t> lv{0};
    /// Waiters registered (or registering) in the lists below. seq_cst
    /// partner of the publish-side lv store.
    std::atomic<std::uint32_t> sleepers{0};
    /// Mirror of deferred_.size(), readable without mu_.
    std::atomic<std::uint32_t> deferred_n{0};
  };

  /// One parked thread: its own cv plus the window [lo, hi) of lv values
  /// it can proceed under (hi == lo + 1 for exact waits). Stack-allocated
  /// by the waiting thread; lives until its wait returns. `comp` is the
  /// waiting computation; `counted` guards the one wakeup-delivered report
  /// per park that the schedule explorer's accounting (and the
  /// wakeups_delivered() bound) relies on; `cancelled` is set (under mu_)
  /// by cancel_waiters after unhooking the entry.
  struct Waiter {
    std::condition_variable cv;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t comp = 0;
    bool counted = false;
    bool cancelled = false;
  };

  /// Ring of recent (version, comp) admissions for blocked-state dumps.
  /// Lock-free: the admitting thread writes its slot, snapshot() reads all
  /// slots and keeps entries still above lv. Bounded — under a backlog
  /// deeper than the ring only the newest kHolderRing holders are named
  /// (wait-for edges to older ones still arise transitively through their
  /// own wait records).
  struct HolderSlot {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> comp{0};
  };
  static constexpr std::size_t kHolderRing = 512;

  /// Post-update half of every publish: fast-exit when nobody can care,
  /// else take mu_ and run wakeups + deferred upgrades.
  void after_publish();
  /// Monotone CAS-max upgrade of lv to `to`, then wake. Caller holds mu_.
  void raise_lv_locked(std::uint64_t to);
  /// Fire every deferred upgrade whose trigger is at or below lv (lock-free
  /// publishers may step lv across several values between slow-path
  /// entries). Caller holds mu_.
  void apply_deferred_locked();
  /// Notify exactly the waiters whose window contains the current lv.
  void wake_matching_locked();

  VersionCell cell_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> deferred_;  // trigger lv -> new lv
  /// Exact waiters keyed by the lv value they await. Keys are distinct in
  /// practice (each version has one owner), but on_complete re-waits the
  /// same key a before_execute used, so a multimap keeps this robust.
  std::unordered_multimap<std::uint64_t, Waiter*> exact_waiters_;
  /// Window waiters (VCAbound); scanned linearly on publish — bounds keep
  /// this list short by construction.
  std::vector<Waiter*> window_waiters_;
  std::uint64_t wakeups_delivered_ = 0;

  std::atomic<std::uint64_t> fast_publishes_{0};
  std::atomic<std::uint64_t> slow_publishes_{0};

  std::mutex admit_mu_;  // multi-mp admissions only (lock-ordered)

  std::unique_ptr<HolderSlot[]> holders_ = std::make_unique<HolderSlot[]>(kHolderRing);
};

/// Lazily-populated table of gates, one per microprotocol, shared by all
/// computations of a controller. Lookup of an existing gate is lock-free
/// (open-addressed probe over atomic slots — gates are created once and
/// never removed); only first-touch creation takes the table mutex.
class GateTable {
 public:
  GateTable();
  ~GateTable();

  GateTable(const GateTable&) = delete;
  GateTable& operator=(const GateTable&) = delete;

  VersionGate& gate(MicroprotocolId mp) {
    const std::uint32_t key = mp.value();
    if (key == kEmptyKey) return gate_slow(mp);  // invalid id aliases the empty sentinel
    std::size_t i = probe_start(key);
    for (std::size_t n = 0; n < kSlots; ++n, i = (i + 1) & (kSlots - 1)) {
      const std::uint32_t k = slots_[i].key.load(std::memory_order_acquire);
      if (k == key) return *slots_[i].gate.load(std::memory_order_relaxed);
      if (k == kEmptyKey) break;
    }
    return gate_slow(mp);
  }

 private:
  /// Fixed probe table; controllers see at most the stack's microprotocol
  /// count, far below this. The locked overflow map keeps correctness if a
  /// pathological workload ever exceeds it.
  static constexpr std::size_t kSlots = 2048;
  static constexpr std::uint32_t kEmptyKey = MicroprotocolId::kInvalid;

  struct Slot {
    std::atomic<std::uint32_t> key{kEmptyKey};
    std::atomic<VersionGate*> gate{nullptr};
  };

  static std::size_t probe_start(std::uint32_t key) {
    // Fibonacci hash spreads dense ids over the table.
    return (key * 2654435761u) & (kSlots - 1);
  }

  VersionGate& gate_slow(MicroprotocolId mp);

  std::unique_ptr<Slot[]> slots_ = std::make_unique<Slot[]>(kSlots);
  std::mutex mu_;
  std::size_t used_ = 0;
  std::vector<std::unique_ptr<VersionGate>> owned_;
  std::unordered_map<MicroprotocolId, std::unique_ptr<VersionGate>> overflow_;
};

/// One declared microprotocol of an admitted computation: its gate,
/// resolved once at admission, the private version pv claimed there, and
/// the microprotocol's name, which its gate waits report in blocked-state
/// dumps (VCAbasic keeps exactly this; the other controllers use it to
/// lock).
struct GateClaim {
  MicroprotocolId mp;
  VersionGate* gate = nullptr;
  std::uint64_t pv = 0;
  const char* who = "";
};

/// The gates of `spec`'s members, sorted by mp id (pv = 0): the layout
/// OrderedAdmission locks in.
std::vector<GateClaim> resolve_claims(GateTable& gates, const Isolation& spec);

/// RAII lock-ordered admission over several gates (the multi-microprotocol
/// slow path). Acquires every claimed gate's admission_mutex() in
/// ascending mp-id order — two admissions sharing any two gates therefore
/// overlap on at least one lock, which makes their gv bumps atomic relative
/// to each other and keeps the wait-for relation a total order (the
/// paper's atomic-admission invariant). Single-mp admissions never take
/// these locks: a computation declaring one microprotocol can share at
/// most one gate with anyone, and the per-gate version chain is already a
/// total order, so it can never close a cycle.
///
/// `claims` must be sorted by mp id without duplicates (resolve_claims)
/// and outlive this object; nothing is allocated.
class OrderedAdmission {
 public:
  explicit OrderedAdmission(std::span<const GateClaim> claims);
  ~OrderedAdmission();

  OrderedAdmission(const OrderedAdmission&) = delete;
  OrderedAdmission& operator=(const OrderedAdmission&) = delete;

 private:
  std::span<const GateClaim> claims_;
};

}  // namespace samoa
