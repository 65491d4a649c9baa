// Virtual-time layer — deterministic simulation substrate.
//
// Every component that sleeps, arms a timeout, or stamps a deadline does so
// through a ClockSource. Two implementations exist:
//
//   * WallClock — the process-global steady clock. Each event source runs
//     on its own thread, which really sleeps until the source's next
//     deadline. This is what the latency/overhead experiments need (they
//     measure real time).
//
//   * VirtualClock — FoundationDB/TigerBeetle-style deterministic
//     simulation. One loop thread, owned by the clock, fires every event of
//     every source (SimNetwork's packets, each TimerService's timers). It
//     keeps the sources' earliest deadlines in one heap ordered by
//     (deadline, source id), jumps `now()` straight to the head and fires
//     it, so events run one at a time, each to completion (including the
//     isolated computation it spawned, which a virtual-time Runtime runs
//     inline on the loop thread) before the next starts. A test run under
//     VirtualClock burns zero wall-clock time in timers and is bit-for-bit
//     reproducible from its seed.
//
// Contract for an event source (SimNetwork and TimerService follow it):
//
//   1. add_source(*this) once the queue is ready; source ids, the tiebreak
//      for equal deadlines, follow registration order;
//   2. the clock calls next_deadline() and fire(), never concurrently for
//      one source; fire() runs the earliest event only if it is due;
//   3. after inserting an event, with the source's own mutex released, call
//      Registration::reschedule() so the clock re-reads next_deadline()
//      before any later deadline fires. A cancel needs no call: the clock
//      reaches the cancelled deadline, fire() finds nothing due, and the
//      clock re-reads the head;
//   4. call Registration::close() before the queue it reads goes away. That
//      blocks until no event of the source is running, and none starts
//      afterwards; the registration stays valid, so an event still running
//      meanwhile may call reschedule(), which is then a no-op.
//
// The virtual clock calls next_deadline() with its own mutex held, so never
// call into the clock while holding a mutex that next_deadline() takes.
// The clock must outlive every source registered with it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <tuple>
#include <vector>

#include "util/stats.hpp"

namespace samoa::time {

/// A queue of timed events driven by a clock.
class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Deadline of the earliest pending event; Clock::time_point::max() when
  /// there is none.
  virtual Clock::time_point next_deadline() = 0;

  /// Run the earliest pending event if it is due at `now`; return without
  /// running anything if it is not.
  virtual void fire(Clock::time_point now) = 0;
};

/// A source's registration with its clock (see ClockSource::add_source).
/// Destroying it closes it.
class Registration {
 public:
  Registration() = default;
  virtual ~Registration() = default;
  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;

  /// The source's earliest deadline may have moved earlier. A no-op once
  /// closed.
  virtual void reschedule() = 0;

  /// Deregister the source: no event of it starts from here on, and this
  /// blocks until a running one returned (never call it from the source's
  /// own event). Idempotent.
  virtual void close() = 0;
};

class ClockSource {
 public:
  virtual ~ClockSource() = default;

  virtual Clock::time_point now() const = 0;
  virtual bool is_virtual() const = 0;

  /// Start driving `source`: from now on its events fire at their
  /// deadlines until the returned registration is destroyed.
  virtual std::unique_ptr<Registration> add_source(EventSource& source) = 0;

  /// Activity pin: no event starts while another thread holds a pin. The
  /// runtime holds one per in-flight computation; test harnesses hold one
  /// while injecting a workload. A pin taken on the loop thread never
  /// blocks anything, since that thread starts no event until its current
  /// one returns. Never wait for simulated progress while holding a pin.
  virtual void pin() {}
  virtual void unpin() {}
};

/// Process-global wall clock (the default everywhere).
ClockSource& wall_clock();

class WallClock final : public ClockSource {
 public:
  Clock::time_point now() const override { return Clock::now(); }
  bool is_virtual() const override { return false; }
  std::unique_ptr<Registration> add_source(EventSource& source) override;
};

class VirtualClock final : public ClockSource {
 public:
  VirtualClock();
  /// Stops the loop. Every source must be deregistered first.
  ~VirtualClock() override;

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  Clock::time_point now() const override {
    return Clock::time_point(Clock::duration(now_.load(std::memory_order_acquire)));
  }
  bool is_virtual() const override { return true; }

  std::unique_ptr<Registration> add_source(EventSource& source) override;

  void pin() override;
  void unpin() override;

 private:
  class SourceRegistration;

  struct Slot {
    EventSource* source;  // null once deregistered
    /// The deadline this source fires at next, as last read from it; max()
    /// when nothing is armed. Heap entries that disagree are stale.
    Clock::time_point armed = Clock::time_point::max();
    bool dirty = false;  // re-read next_deadline() before the next pick
  };
  struct Head {
    Clock::time_point at;
    int source;
    bool operator>(const Head& o) const {
      return std::tie(at, source) > std::tie(o.at, o.source);
    }
  };

  void run();
  void reschedule(int source);
  void remove_source(int source);
  bool on_loop_thread() const { return std::this_thread::get_id() == loop_id_; }
  void mark_dirty_locked(int source);
  /// Re-read the head of every dirty source into the heap.
  void refresh_locked();
  /// Consume the next event to fire: the heap minimum. False when nothing
  /// is armed.
  bool pick_locked(Head& next);

  std::mutex mu_;
  std::condition_variable loop_cv_;   // the loop waits for work or for pins to drop
  std::condition_variable fired_cv_;  // deregistration waits out a running event
  std::atomic<Clock::rep> now_{0};    // virtual epoch: time_point zero
  std::atomic<long> pins_{0};
  std::vector<Slot> slots_;  // indexed by source id
  std::vector<int> dirty_;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads_;
  int firing_ = -1;  // source whose event runs on the loop right now
  bool stop_ = false;
  std::thread loop_;
  std::thread::id loop_id_;
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
