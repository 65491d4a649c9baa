// Blocked-state introspection — the registry half of the diag layer.
//
// SAMOA's liveness story is "a blocked handler is always unblocked by a
// version publish" (paper Sections 5-6). This registry is how we *check*
// that claim at runtime instead of assuming it: every blocking point in
// the runtime registers a typed wait record before parking (version-gate
// waits, TSO claims, runtime drains, completion waits), and every version
// gate records which computation will publish each version, so a stalled
// process can produce a thread dump with wait-for edges and name the
// cycle that wedged it.
//
// Registration is always on — it only touches the slow path (a thread
// about to park) — and doubles as the thread pool's park notification:
// ScopedWait tells the worker's ElasticThreadPool that this thread no
// longer consumes a runnable slot, which is what makes the pool's
// deadlock-freedom argument hold under a thread cap (see
// util/thread_pool.hpp). Holder tracking (which computation will publish
// which version, for wait-for edges) is also always on: each gate keeps it
// lock-free in its own ring and hands it over only when a dump is taken
// (HolderSource).
//
// Lock order: a caller may hold its own gate/controller mutex when
// touching the registry; the registry may take a pool's mutex (snapshot,
// park hints run without registry lock). Nothing ever takes a gate or
// controller mutex from inside the registry or a pool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace samoa {
class ElasticThreadPool;
}

namespace samoa::diag {

enum class WaitKind {
  kGateExact,   // VersionGate::wait_exact (VCAbasic/route/rw Rule 2, Step 3;
                // the serial controller's turn)
  kGateWindow,  // VersionGate::wait_window (VCAbound Rule 2/3)
  kClaim,       // TSO claim wait (wait-die: older computation parks)
  kClaimAbort,  // TSO post-abort wait for the killer claim to clear
  kDrain,       // Runtime::drain waiting for inflight_ to empty
  kCompletion,  // ComputationHandle/Computation wait_done
  kExternal,    // test/bench-registered wait (e.g. polling loops)
};

const char* to_string(WaitKind kind);

/// Observer of park/unpark/wakeup transitions, for schedule exploration.
///
/// The explorer needs two things the registry already sees: (1) "this
/// thread is about to park in a controller wait" / "it resumed", so it can
/// release and re-arm the scheduling token, and (2) "a wakeup was handed to
/// computation `comp`", so it can defer scheduling decisions until every
/// delivered-but-not-yet-consumed wakeup has landed (otherwise the runnable
/// set at a decision point would depend on OS thread timing and replay
/// would diverge).
///
/// Calls arrive on the transitioning thread (park/unpark: the waiter
/// itself, from the ScopedWait ctor/dtor; wakeup_delivered: the publisher,
/// from inside the subject's wake path). The subject's mutex may be held
/// for any of them, so implementations must treat their own lock as a leaf
/// and must never block. Exactly one observer may be installed at a time.
class WaitObserver {
 public:
  virtual ~WaitObserver() = default;
  virtual void on_wait_park(WaitKind kind, std::uint64_t comp) = 0;
  virtual void on_wait_unpark(WaitKind kind, std::uint64_t comp) = 0;
  virtual void on_wakeup_delivered(std::uint64_t comp) = 0;
};

/// One parked thread. `subject` identifies what it waits on (a gate or
/// controller address); `awaiting_lo`/`awaiting_hi` the version window it
/// needs ([lo, hi), hi == lo + 1 for exact waits); `observed` the
/// subject's version when the thread parked.
struct WaitRecord {
  std::uint64_t id = 0;
  WaitKind kind = WaitKind::kExternal;
  const void* subject = nullptr;
  std::string subject_name;
  std::uint64_t awaiting_lo = 0;
  std::uint64_t awaiting_hi = 0;
  std::uint64_t observed = 0;
  std::uint64_t comp = 0;  // waiting computation id (0 = not a computation)
  const samoa::ElasticThreadPool* pool = nullptr;  // set if a pool worker
  std::thread::id thread;
  std::chrono::steady_clock::time_point since{};
};

/// Who will publish a version: admission bookkeeping per subject.
struct HolderEntry {
  std::uint64_t version = 0;
  std::uint64_t comp = 0;
};

/// A subject that tracks its own holders lock-free and hands the registry a
/// snapshot on demand. Version gates implement this: with a lock-free
/// admission fast path, one registry-mutex acquisition per admission would
/// serialise exactly the path the sharded ticket scheme de-serialises.
/// Both methods are called only from snapshot() (cold path) and must be
/// safe against concurrent admissions/publishes on the subject; best-effort
/// staleness is fine — dumps are diagnostics, not oracles.
class HolderSource {
 public:
  virtual ~HolderSource() = default;
  virtual std::uint64_t last_published() const = 0;
  virtual std::vector<HolderEntry> outstanding_holders() const = 0;
};

struct PoolState {
  const samoa::ElasticThreadPool* pool = nullptr;
  std::size_t live = 0;
  std::size_t idle = 0;
  std::size_t parked = 0;
  std::size_t queued = 0;
  std::size_t max_threads = 0;
  std::size_t peak = 0;
  std::vector<std::uint64_t> queued_tags;   // computation ids of queued tasks
  std::vector<std::uint64_t> running_tags;  // computation ids on workers
};

/// A wait-for edge for cycle detection. Nodes are computations (comp != 0)
/// or pools. "from waits for to".
struct WaitEdge {
  std::uint64_t from_comp = 0;
  const samoa::ElasticThreadPool* from_pool = nullptr;
  std::uint64_t to_comp = 0;
  const samoa::ElasticThreadPool* to_pool = nullptr;
  std::string label;  // human-readable reason
};

struct Dump {
  std::chrono::steady_clock::time_point taken{};
  std::vector<WaitRecord> waits;
  std::vector<PoolState> pools;
  /// subject -> (name, last published version, outstanding holders)
  struct SubjectState {
    const void* subject = nullptr;
    std::string name;
    std::uint64_t last_published = 0;
    std::vector<HolderEntry> holders;
  };
  std::vector<SubjectState> subjects;
  std::vector<WaitEdge> edges;
  /// Non-empty when cycle detection found a deadlock: the edges of the
  /// first cycle, in order.
  std::vector<WaitEdge> cycle;

  std::string to_text() const;
  std::string to_json() const;
};

class WaitRegistry {
 public:
  static WaitRegistry& instance();

  // --- progress epoch (read by the watchdog) ---
  /// Bumped by every version publish, task completion and computation
  /// completion; an unchanged epoch over a watchdog budget means no
  /// progress.
  void note_progress() { epoch_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t progress_epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // --- holder tracking (wait-for edges) ---
  /// Register `subject`: snapshot() reads its holders and published
  /// version from `src`. Called once at subject construction (cold);
  /// detach via forget_subject.
  void attach_source(const void* subject, const HolderSource* src);
  /// Forget a subject entirely (its owner is being destroyed).
  void forget_subject(const void* subject);

  // --- pools ---
  void register_pool(samoa::ElasticThreadPool* pool);
  void unregister_pool(samoa::ElasticThreadPool* pool);

  /// Snapshot every wait record, pool and subject, derive wait-for edges,
  /// and run cycle detection.
  Dump snapshot() const;

  std::size_t wait_count() const;

  /// Age of the oldest currently-registered wait (zero when none). Lets
  /// the watchdog catch a *starved* wait — one parked far beyond any
  /// reasonable bound while unrelated work keeps the progress epoch
  /// moving (the signature of a head-of-line stall under background
  /// traffic, which pure no-progress detection is blind to).
  std::chrono::steady_clock::duration oldest_wait_age() const;

  // --- wait observer (schedule exploration) ---
  /// Install/remove the process-wide observer. Install before any observed
  /// runtime starts and remove after it drains; the registry does not
  /// synchronise observer lifetime against in-flight waits.
  void set_observer(WaitObserver* obs) { observer_.store(obs, std::memory_order_release); }
  void clear_observer() { observer_.store(nullptr, std::memory_order_release); }
  WaitObserver* observer() const { return observer_.load(std::memory_order_acquire); }

  /// Wake paths (VersionGate, TSO claims) report each wakeup they hand to
  /// a parked computation, at most once per park (the caller guards with a
  /// per-waiter flag). Called under the subject's mutex; forwards to the
  /// observer if one is installed.
  void note_wakeup_delivered(std::uint64_t comp) {
    if (WaitObserver* obs = observer()) obs->on_wakeup_delivered(comp);
  }

  // -- internal (ScopedWait) --
  std::uint64_t add_wait(WaitRecord rec);
  void remove_wait(std::uint64_t id);

 private:
  struct Subject {
    std::string name;  // backfilled by the first waiter that knows it
    const HolderSource* source = nullptr;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, WaitRecord> waits_;
  std::unordered_map<const void*, Subject> subjects_;
  std::vector<samoa::ElasticThreadPool*> pools_;
  std::uint64_t next_wait_id_ = 1;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<WaitObserver*> observer_{nullptr};
};

/// RAII wait registration. Construct immediately before parking (the
/// caller may hold the mutex it parks with) and let it unwind after the
/// wait returns. Also marks the current thread parked in its
/// ElasticThreadPool, releasing its runnable slot for the duration.
///
/// Nesting: only the outermost ScopedWait on a thread registers a record
/// and notifies the pool/observer. Inner waits (e.g. the
/// OneShotEvent park inside Computation::wait_done, which already holds a
/// kCompletion record) are invisible, so park notifications stay balanced
/// at one per actual park.
class ScopedWait {
 public:
  ScopedWait(WaitKind kind, const void* subject, std::string subject_name,
             std::uint64_t awaiting_lo, std::uint64_t awaiting_hi, std::uint64_t observed);
  ~ScopedWait();

  ScopedWait(const ScopedWait&) = delete;
  ScopedWait& operator=(const ScopedWait&) = delete;

 private:
  std::uint64_t id_ = 0;
  samoa::ElasticThreadPool* pool_ = nullptr;
  WaitKind kind_ = WaitKind::kExternal;
  std::uint64_t comp_ = 0;
  bool outermost_ = false;
};

/// Thread-local id of the computation whose task runs on this thread
/// (0 = none). Set by the runtime around root/async task bodies so gate
/// waits can attribute themselves.
std::uint64_t current_computation();

class ScopedComputation {
 public:
  explicit ScopedComputation(std::uint64_t comp);
  ~ScopedComputation();

  ScopedComputation(const ScopedComputation&) = delete;
  ScopedComputation& operator=(const ScopedComputation&) = delete;

 private:
  std::uint64_t prev_;
};

}  // namespace samoa::diag
