// Virtual-time layer — deterministic simulation substrate.
//
// Every component that sleeps, arms a timeout, or stamps a deadline does so
// through a ClockSource. Two implementations exist:
//
//   * WallClock — the process-global steady clock; waits really block.
//     Behaviour is identical to the pre-clock-injection code. This is what
//     the latency/overhead experiments need (they measure real time).
//
//   * VirtualClock — FoundationDB/TigerBeetle-style deterministic
//     simulation. Time is a number that only moves when every registered
//     worker thread (SimNetwork's delivery loop, each TimerService loop) is
//     parked and no activity pin is held (a pin is held for every in-flight
//     runtime computation). At that quiescent point the scheduler jumps
//     `now()` straight to the earliest armed deadline and wakes exactly one
//     waiter; events therefore execute one at a time, in (deadline,
//     worker-id) order, each running to completion (including the isolated
//     computation it spawned, which a virtual-time Runtime runs inline on
//     the event's own thread) before the next fires. A test run under
//     VirtualClock burns zero wall-clock time in timers and is bit-for-bit
//     reproducible from its seed.
//
// Protocol for a worker loop (SimNetwork / TimerService follow it):
//
//   1. register via WorkerHandle (constructor, before the thread starts);
//   2. park with wait()/wait_until() while idle, passing a `wake` predicate
//      covering every non-time reason to re-check (shutdown, queue change);
//   3. bracket the execution of a due callback with begin_dispatch()/
//      end_dispatch() — WITHOUT holding the service mutex — so the
//      scheduler can serialize event execution;
//   4. producers call interrupt(worker) — naming the worker whose queue
//      they inserted into — after inserting work and after releasing the
//      service mutex, so that worker's parked deadline is re-validated
//      before time advances past it. Only that worker is woken: no other
//      registration can overshoot its own queue's head, so one event costs
//      O(1) wakeups however many workers are parked. An insert that leaves
//      the queue's head unchanged may skip the interrupt. (A cancel makes a
//      registration early, never late: the early wake finds nothing due
//      and re-parks, so cancels need no interrupt.) The scheduler's wake
//      path acquires the target waiter's service mutex, so calling
//      interrupt() (or end_dispatch()) while holding a mutex some waiter
//      parks with would self-deadlock. The window between insert and
//      interrupt is covered by the caller's dispatch turn or activity pin,
//      either of which stalls the scheduler.
//
// The clock must outlive every component registered with it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "util/stats.hpp"

namespace samoa::time {

class ClockSource {
 public:
  virtual ~ClockSource() = default;

  virtual Clock::time_point now() const = 0;
  virtual bool is_virtual() const = 0;

  /// Register / deregister a worker thread that consumes time. Returns a
  /// stable worker id used to order simultaneous events deterministically.
  virtual int add_worker() { return 0; }
  virtual void remove_worker(int worker) { (void)worker; }

  /// Park the calling worker until `wake()` holds (wait) or additionally
  /// until `deadline` is reached (wait_until). May return spuriously; the
  /// caller's loop re-checks its own state. `lock`/`cv` are the caller's
  /// own mutex and condition variable; `wake` must be evaluable under
  /// `lock` and must cover shutdown plus any queue change that invalidates
  /// the registered deadline.
  virtual void wait(int worker, std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                    const std::function<bool()>& wake) = 0;
  virtual void wait_until(int worker, std::unique_lock<std::mutex>& lock,
                          std::condition_variable& cv, Clock::time_point deadline,
                          const std::function<bool()>& wake) = 0;

  /// Serialize the execution of one due event (a packet delivery or timer
  /// callback). Under VirtualClock, begin_dispatch blocks until every
  /// other worker is parked or queued behind this dispatch and no activity
  /// pin is held; simultaneous dispatches are granted in (due, worker)
  /// order. Call WITHOUT holding the service mutex. No-ops on WallClock.
  virtual void begin_dispatch(int worker, Clock::time_point due) {
    (void)worker;
    (void)due;
  }
  virtual void end_dispatch() {}

  /// Activity pin: virtual time cannot advance and no event can dispatch
  /// while at least one pin is held. The runtime holds one per in-flight
  /// computation; test harnesses hold one while injecting a workload.
  /// Never wait for simulated progress while holding a pin.
  virtual void pin() {}
  virtual void unpin() {}

  /// Tell the scheduler that `worker`'s armed deadline may have moved
  /// earlier (a packet or timer was inserted into its queue): if it is
  /// parked, it re-validates its registration before time advances past
  /// it. No other worker is disturbed. Call WITHOUT holding any mutex a
  /// waiter parks with (the wake path locks it).
  virtual void interrupt(int worker) { (void)worker; }
};

/// One step the VirtualClock scheduler could take at a quiescent point:
/// either grant a pending dispatch turn or advance time to an armed
/// deadline and wake its owner. Presented to a WakePolicy whenever more
/// than one candidate of the same tier is runnable.
struct RunnableStep {
  enum class Kind : std::uint8_t {
    kDispatch,  // a begin_dispatch turn request (already-due event)
    kTimer,     // a parked wait_until whose deadline time would jump to
  };
  Kind kind = Kind::kTimer;
  int worker = 0;
  Clock::time_point due{};
};

/// Pluggable choice of which runnable step goes next. The default (no
/// policy installed) is the deterministic minimum by (due, worker); a
/// policy may pick ANY candidate — schedule exploration uses this to
/// perturb event order while staying replayable.
///
/// Contract: `choose` is called with the clock's scheduler mutex held and
/// must not block, re-enter the clock, or have side effects beyond its own
/// bookkeeping. `steps` is sorted by (due, worker) and has >= 2 entries
/// (singleton choices are not decision points); the return value indexes
/// into it and is clamped by the caller. Timer candidates may be chosen
/// out of deadline order: the clock then jumps straight to the chosen
/// deadline, and any bypassed earlier deadline becomes due immediately at
/// the next quiescent point (time never runs backwards).
class WakePolicy {
 public:
  virtual ~WakePolicy() = default;
  virtual std::size_t choose(const std::vector<RunnableStep>& steps) = 0;
};

/// Process-global wall clock (the default everywhere).
ClockSource& wall_clock();

class WallClock final : public ClockSource {
 public:
  Clock::time_point now() const override { return Clock::now(); }
  bool is_virtual() const override { return false; }

  void wait(int, std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
            const std::function<bool()>& wake) override {
    cv.wait(lock, wake);
  }
  void wait_until(int, std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                  Clock::time_point deadline, const std::function<bool()>& wake) override {
    cv.wait_until(lock, deadline, wake);
  }
};

class VirtualClock final : public ClockSource {
 public:
  VirtualClock() = default;

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  Clock::time_point now() const override;
  bool is_virtual() const override { return true; }

  int add_worker() override;
  void remove_worker(int worker) override;

  void wait(int worker, std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
            const std::function<bool()>& wake) override;
  void wait_until(int worker, std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                  Clock::time_point deadline, const std::function<bool()>& wake) override;

  void begin_dispatch(int worker, Clock::time_point due) override;
  void end_dispatch() override;

  void pin() override;
  void unpin() override;
  void interrupt(int worker) override;

  /// Install (or remove, with nullptr) the step-choice policy. Safe to
  /// call at any quiescent moment; the policy must outlive its
  /// installation. Decisions the policy never sees (single candidate)
  /// stay deterministic by construction.
  void set_wake_policy(WakePolicy* policy);

  /// Parked workers the scheduler has woken so far (deadline wakes plus
  /// stale-registration re-validations). With targeted interrupts this
  /// grows O(1) per event, independent of how many workers are parked.
  std::uint64_t wakeups() const;

 private:
  struct Waiter {
    int worker;
    std::mutex* mu;  // the service mutex the waiter blocks with
    std::condition_variable* cv;
    Clock::time_point deadline;
    bool has_deadline;
    std::atomic<bool> woken{false};
  };
  struct TurnRequest {
    int worker;
    Clock::time_point due;
    bool granted = false;
  };
  /// A wake selected by the scheduler but not yet delivered. Holds the
  /// waiter's service mutex/cv, not the Waiter itself: the waiter may
  /// absorb the wake (via its own predicate) and unwind before the notify
  /// lands; the service's mutex and cv stay valid until remove_worker,
  /// which drains in-flight notifies first.
  struct PendingWake {
    std::mutex* mu;
    std::condition_variable* cv;
  };

  void park(Waiter& w, std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
            const std::function<bool()>& wake);
  /// The scheduler step, run at every quiescence-relevant transition.
  /// Exactly one of: wake interrupted waiters, grant the earliest pending
  /// dispatch, or advance time to the earliest deadline and wake its
  /// owner. Turn grants are notified inline (turn_cv_ waits on mu_);
  /// waiter wakes are returned for the caller to deliver via flush_wakes
  /// AFTER releasing mu_ — notifying a waiter's cv without holding its
  /// service mutex can land between its predicate check and its block and
  /// be lost (classic lost wakeup), deadlocking the simulation.
  [[nodiscard]] std::vector<PendingWake> step_locked();
  /// Deliver wakes collected by step_locked. Must be called with mu_
  /// released. `held` is the service lock the caller still owns (park), or
  /// null: a wake targeting it is notified directly (safe — we hold the
  /// mutex); for any other target `held` is released first, so no thread
  /// ever holds one service mutex while acquiring another (no lock
  /// cycles). Releasing `held` mid-park is safe because cv.wait
  /// re-evaluates its predicate under the lock before blocking.
  void flush_wakes(std::vector<PendingWake> wakes, std::unique_lock<std::mutex>* held);

  mutable std::mutex mu_;
  std::condition_variable turn_cv_;
  std::condition_variable notify_drain_cv_;
  Clock::time_point now_{};  // virtual epoch: time_point zero
  int workers_ = 0;
  int next_worker_id_ = 0;
  long pins_ = 0;
  int pending_wakes_ = 0;
  int notifies_in_flight_ = 0;
  bool turn_active_ = false;
  std::uint64_t wakeups_ = 0;
  WakePolicy* wake_policy_ = nullptr;
  std::vector<Waiter*> parked_;
  /// Parked waiters named by an interrupt since they parked: their
  /// registered deadlines may overshoot their queues' new heads.
  std::vector<Waiter*> stale_;
  std::vector<TurnRequest*> turn_requests_;
};

/// RAII registration of a worker thread with a clock.
class WorkerHandle {
 public:
  explicit WorkerHandle(ClockSource& clock) : clock_(&clock), id_(clock.add_worker()) {}
  ~WorkerHandle() { clock_->remove_worker(id_); }

  WorkerHandle(const WorkerHandle&) = delete;
  WorkerHandle& operator=(const WorkerHandle&) = delete;

  int id() const { return id_; }

 private:
  ClockSource* clock_;
  int id_;
};

/// RAII activity pin; hold while injecting a workload so virtual time
/// stands still until the setup is complete.
class Pin {
 public:
  explicit Pin(ClockSource& clock) : clock_(&clock) { clock_->pin(); }
  ~Pin() { clock_->unpin(); }

  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

 private:
  ClockSource* clock_;
};

}  // namespace samoa::time
