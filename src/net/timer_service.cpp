#include "net/timer_service.hpp"

#include <vector>

namespace samoa::net {

TimerService::TimerService(time::ClockSource* clock)
    : clock_(clock != nullptr ? *clock : time::wall_clock()),
      worker_(clock_),
      thread_([this] { loop(); }) {}

TimerService::~TimerService() {
  {
    std::unique_lock lock(mu_);
    shutdown_ = true;
    cv_.notify_all();
  }
  thread_.join();
}

TimerId TimerService::schedule(std::chrono::microseconds delay, std::function<void()> fn) {
  TimerId id;
  {
    std::unique_lock lock(mu_);
    id = next_id_++;
    queue_.emplace(clock_.now() + delay, Entry{id, std::chrono::microseconds{0}, std::move(fn)});
    cv_.notify_all();
  }
  // interrupt() must run with mu_ released: the scheduler's wake path locks
  // the parked loop's mutex — this mu_ — to deliver the notify.
  clock_.interrupt(worker_.id());
  return id;
}

TimerId TimerService::schedule_periodic(std::chrono::microseconds interval,
                                        std::function<void()> fn) {
  TimerId id;
  {
    std::unique_lock lock(mu_);
    id = next_id_++;
    queue_.emplace(clock_.now() + interval, Entry{id, interval, std::move(fn)});
    cv_.notify_all();
  }
  clock_.interrupt(worker_.id());
  return id;
}

bool TimerService::cancel(TimerId id) {
  std::unique_lock lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->second.id == id) {
      queue_.erase(it);
      return true;
    }
  }
  // Not queued — it may be mid-callback. A periodic timer would otherwise
  // re-arm after the callback returns, losing the cancellation; flag it so
  // loop() suppresses the re-arm. A one-shot mid-callback keeps the
  // "already fired" contract and reports false.
  if (id != 0 && id == running_id_ && running_interval_.count() > 0) {
    running_cancelled_ = true;
    return true;
  }
  return false;
}

void TimerService::cancel_all() {
  std::unique_lock lock(mu_);
  queue_.clear();
  // Also stop any periodic timer currently mid-callback from re-arming.
  running_cancelled_ = true;
}

void TimerService::loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    if (shutdown_) return;
    if (queue_.empty()) {
      clock_.wait(worker_.id(), lock, cv_, [this] { return shutdown_ || !queue_.empty(); });
      continue;
    }
    const auto deadline = queue_.begin()->first;
    if (clock_.now() < deadline) {
      // Re-check on wake: an earlier timer, a cancellation of the head, or
      // shutdown may have invalidated the registered deadline.
      clock_.wait_until(worker_.id(), lock, cv_, deadline, [this, deadline] {
        return shutdown_ || queue_.empty() || queue_.begin()->first != deadline;
      });
      continue;
    }
    Entry entry = std::move(queue_.begin()->second);
    queue_.erase(queue_.begin());
    running_id_ = entry.id;
    running_interval_ = entry.interval;
    running_cancelled_ = false;
    lock.unlock();
    clock_.begin_dispatch(worker_.id(), deadline);
    // Count before invoking: a callback that signals completion must not
    // be observable before the fire it belongs to.
    fired_.add();
    entry.fn();
    clock_.end_dispatch();
    lock.lock();
    if (entry.interval.count() > 0 && !shutdown_ && !running_cancelled_) {
      queue_.emplace(clock_.now() + entry.interval, std::move(entry));
    }
    running_id_ = 0;
  }
}

}  // namespace samoa::net
