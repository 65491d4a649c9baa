#include "time/clock.hpp"

#include <algorithm>
#include <cassert>

namespace samoa::time {

namespace {

/// Drives one source on the wall clock: a thread that sleeps until the
/// source's next deadline (or a reschedule) and fires whatever is due.
class WallRegistration final : public Registration {
 public:
  explicit WallRegistration(EventSource& source)
      : source_(source), thread_([this] { run(); }) {}

  ~WallRegistration() override { close(); }

  void close() override {
    {
      std::lock_guard g(mu_);
      if (stop_) return;
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void reschedule() override {
    {
      std::lock_guard g(mu_);
      rescheduled_ = true;
    }
    cv_.notify_all();
  }

 private:
  void run() {
    std::unique_lock g(mu_);
    while (!stop_) {
      // Cleared before the head is read: a reschedule landing after the
      // read sets it again, so the wait below cannot miss it.
      rescheduled_ = false;
      g.unlock();
      const Clock::time_point deadline = source_.next_deadline();
      const Clock::time_point now = Clock::now();
      const bool due = deadline <= now;
      if (due) source_.fire(now);
      g.lock();
      if (due) continue;
      const auto woken = [this] { return stop_ || rescheduled_; };
      if (deadline == Clock::time_point::max()) {
        cv_.wait(g, woken);
      } else {
        cv_.wait_until(g, deadline, woken);
      }
    }
  }

  EventSource& source_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool rescheduled_ = false;
  std::thread thread_;  // last: starts once the state above exists
};

}  // namespace

ClockSource& wall_clock() {
  static WallClock instance;
  return instance;
}

std::unique_ptr<Registration> WallClock::add_source(EventSource& source) {
  return std::make_unique<WallRegistration>(source);
}

class VirtualClock::SourceRegistration final : public Registration {
 public:
  SourceRegistration(VirtualClock& clock, int source) : clock_(clock), source_(source) {}
  ~SourceRegistration() override { close(); }

  void reschedule() override { clock_.reschedule(source_); }
  void close() override { clock_.remove_source(source_); }

 private:
  VirtualClock& clock_;
  int source_;
};

VirtualClock::VirtualClock() {
  loop_ = std::thread([this] { run(); });
  loop_id_ = loop_.get_id();
}

VirtualClock::~VirtualClock() {
  {
    std::lock_guard g(mu_);
    assert(std::all_of(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.source == nullptr; }));
    stop_ = true;
  }
  loop_cv_.notify_all();
  loop_.join();
}

std::unique_ptr<Registration> VirtualClock::add_source(EventSource& source) {
  std::lock_guard g(mu_);
  slots_.push_back(Slot{&source});
  return std::make_unique<SourceRegistration>(*this, static_cast<int>(slots_.size()) - 1);
}

void VirtualClock::remove_source(int source) {
  std::unique_lock g(mu_);
  // No event of the source starts from here on; then wait out the one that
  // may be running. An event cannot deregister its own source, so on the
  // loop thread this never waits.
  slots_[static_cast<std::size_t>(source)].source = nullptr;
  assert(!(on_loop_thread() && firing_ == source));
  fired_cv_.wait(g, [&] { return firing_ != source; });
}

void VirtualClock::reschedule(int source) {
  {
    std::lock_guard g(mu_);
    mark_dirty_locked(source);
  }
  // The loop re-reads dirty heads before every pick; only an idle loop
  // needs waking.
  if (!on_loop_thread()) loop_cv_.notify_one();
}

void VirtualClock::pin() {
  if (on_loop_thread()) {
    pins_.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  // Under mu_: the loop holds it from its pin check until the event it
  // picked has started, so this pin either holds that event back or comes
  // after its start, and now() cannot move once pin() returned.
  std::lock_guard g(mu_);
  pins_.fetch_add(1, std::memory_order_acq_rel);
}

void VirtualClock::unpin() {
  if (pins_.fetch_sub(1, std::memory_order_acq_rel) != 1 || on_loop_thread()) return;
  // Under mu_, so the loop cannot miss it between its check and its wait.
  std::lock_guard g(mu_);
  loop_cv_.notify_one();
}

void VirtualClock::mark_dirty_locked(int source) {
  Slot& slot = slots_[static_cast<std::size_t>(source)];
  if (slot.dirty) return;
  slot.dirty = true;
  dirty_.push_back(source);
}

void VirtualClock::refresh_locked() {
  for (const int id : dirty_) {
    Slot& slot = slots_[static_cast<std::size_t>(id)];
    slot.dirty = false;
    if (slot.source == nullptr) continue;
    const Clock::time_point head = slot.source->next_deadline();
    if (head == slot.armed) continue;
    // Older heap entries for this source no longer match `armed`: stale.
    slot.armed = head;
    if (head != Clock::time_point::max()) heads_.push(Head{head, id});
  }
  dirty_.clear();
}

bool VirtualClock::pick_locked(Head& next) {
  while (!heads_.empty()) {
    const Head top = heads_.top();
    heads_.pop();
    Slot& slot = slots_[static_cast<std::size_t>(top.source)];
    if (slot.source == nullptr || slot.armed != top.at) continue;  // stale
    slot.armed = Clock::time_point::max();  // consumed; re-read once it fired
    next = top;
    return true;
  }
  return false;
}

void VirtualClock::run() {
  std::unique_lock g(mu_);
  for (;;) {
    Head next{};
    // Idle until stopped, or until no pin is held and some source is armed;
    // with nothing armed, time stands still.
    loop_cv_.wait(g, [&] {
      if (stop_) return true;
      if (pins_.load(std::memory_order_acquire) > 0) return false;
      refresh_locked();
      return pick_locked(next);
    });
    if (stop_) return;
    // Monotone: a deadline armed against an older now() fires at now().
    if (next.at > now()) now_.store(next.at.time_since_epoch().count(), std::memory_order_release);
    EventSource* source = slots_[static_cast<std::size_t>(next.source)].source;
    firing_ = next.source;
    g.unlock();
    source->fire(now());
    g.lock();
    firing_ = -1;
    mark_dirty_locked(next.source);
    fired_cv_.notify_all();
  }
}

}  // namespace samoa::time
