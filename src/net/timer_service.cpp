#include "net/timer_service.hpp"

namespace samoa::net {

TimerService::TimerService(time::ClockSource* clock)
    : clock_(clock != nullptr ? *clock : time::wall_clock()),
      registration_(clock_.add_source(*this)) {}

TimerService::~TimerService() { registration_->close(); }

void TimerService::schedule(std::chrono::microseconds delay, std::function<void()> fn) {
  {
    std::unique_lock lock(mu_);
    queue_.emplace(clock_.now() + delay, Entry{std::chrono::microseconds{0}, std::move(fn)});
  }
  // With mu_ released: the clock reads next_deadline() under its own mutex.
  registration_->reschedule();
}

void TimerService::schedule_periodic(std::chrono::microseconds interval,
                                     std::function<void()> fn) {
  {
    std::unique_lock lock(mu_);
    queue_.emplace(clock_.now() + interval, Entry{interval, std::move(fn)});
  }
  registration_->reschedule();
}

void TimerService::cancel_all() {
  std::unique_lock lock(mu_);
  queue_.clear();
  // Also stop any periodic timer currently mid-callback from re-arming.
  running_cancelled_ = true;
}

Clock::time_point TimerService::next_deadline() {
  std::unique_lock lock(mu_);
  return queue_.empty() ? Clock::time_point::max() : queue_.begin()->first;
}

void TimerService::fire(Clock::time_point now) {
  std::unique_lock lock(mu_);
  // Nothing due: the head was cancelled since the clock read it.
  if (queue_.empty() || queue_.begin()->first > now) return;
  Entry entry = std::move(queue_.begin()->second);
  queue_.erase(queue_.begin());
  running_cancelled_ = false;
  lock.unlock();
  // Count before invoking: a callback that signals completion must not
  // be observable before the fire it belongs to.
  fired_.add();
  entry.fn();
  lock.lock();
  if (entry.interval.count() > 0 && !running_cancelled_) {
    queue_.emplace(clock_.now() + entry.interval, std::move(entry));
  }
}

}  // namespace samoa::net
