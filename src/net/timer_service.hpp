// Timer service — timeouts as external events.
//
// In the SAMOA model a timeout is one of the two canonical external events
// (Section 2). The TimerService is a deadline-ordered queue and one event
// source of its clock; expired callbacks fire on the clock's thread and
// typically spawn an isolated computation on the owning site's runtime.
// Supports one-shot and periodic timers; cancel_all() stops them all, the
// way a site's crash or shutdown does.
//
// All deadlines flow through an injected time::ClockSource. Under the
// default WallClock a thread of the clock sleeps until each deadline;
// under a time::VirtualClock the service participates in deterministic
// simulation — callbacks fire on the clock's loop in virtual time with
// zero real sleeps, serialized against every other clock-driven event.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "time/clock.hpp"
#include "util/stats.hpp"

namespace samoa::net {

class TimerService : private time::EventSource {
 public:
  explicit TimerService(time::ClockSource* clock = nullptr);
  /// Blocks until a running callback returned; none fires afterwards.
  ~TimerService();

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  /// Fire `fn` once after `delay`.
  void schedule(std::chrono::microseconds delay, std::function<void()> fn);

  /// Fire `fn` every `interval` until cancel_all().
  void schedule_periodic(std::chrono::microseconds interval, std::function<void()> fn);

  /// Cancel everything (used at site shutdown / crash). A periodic timer
  /// mid-callback does not re-arm, including when its own callback calls
  /// cancel_all().
  void cancel_all();

  std::uint64_t fired_count() const { return fired_.value(); }

  time::ClockSource& clock() { return clock_; }

 private:
  struct Entry {
    std::chrono::microseconds interval{0};  // zero: one-shot
    std::function<void()> fn;
  };

  // time::EventSource: the earliest timer, and firing it.
  Clock::time_point next_deadline() override;
  void fire(Clock::time_point now) override;

  time::ClockSource& clock_;
  std::mutex mu_;
  std::multimap<Clock::time_point, Entry> queue_;
  // The entry executing unlocked is no longer in queue_: cancel_all() sets
  // this so that a periodic one does not re-arm.
  bool running_cancelled_ = false;
  Counter fired_;
  std::unique_ptr<time::Registration> registration_;  // last: reads all of the above
};

}  // namespace samoa::net
