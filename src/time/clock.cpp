#include "time/clock.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

namespace samoa::time {

ClockSource& wall_clock() {
  static WallClock instance;
  return instance;
}

Clock::time_point VirtualClock::now() const {
  std::lock_guard g(mu_);
  return now_;
}

int VirtualClock::add_worker() {
  std::lock_guard g(mu_);
  ++workers_;
  return next_worker_id_++;
}

void VirtualClock::remove_worker([[maybe_unused]] int worker) {
  std::vector<PendingWake> wakes;
  {
    std::unique_lock g(mu_);
    // An in-flight notify still dereferences some waiter's service
    // mutex/cv; once this worker deregisters its service may be destroyed,
    // so drain them before letting the caller proceed.
    notify_drain_cv_.wait(g, [this] { return notifies_in_flight_ == 0; });
    // Callers must join the worker thread before WorkerHandle destruction,
    // so nothing of this worker can still be parked or queued for a turn.
    for ([[maybe_unused]] const Waiter* w : parked_) assert(w->worker != worker);
    for ([[maybe_unused]] const TurnRequest* r : turn_requests_) assert(r->worker != worker);
    --workers_;
    wakes = step_locked();
  }
  flush_wakes(std::move(wakes), nullptr);
}

void VirtualClock::pin() {
  std::lock_guard g(mu_);
  ++pins_;
}

void VirtualClock::set_wake_policy(WakePolicy* policy) {
  std::lock_guard g(mu_);
  wake_policy_ = policy;
}

std::uint64_t VirtualClock::wakeups() const {
  std::lock_guard g(mu_);
  return wakeups_;
}

void VirtualClock::unpin() {
  std::vector<PendingWake> wakes;
  {
    std::lock_guard g(mu_);
    if (--pins_ != 0) return;
    wakes = step_locked();
  }
  flush_wakes(std::move(wakes), nullptr);
}

void VirtualClock::interrupt(int worker) {
  std::vector<PendingWake> wakes;
  {
    std::lock_guard g(mu_);
    // Only a registration made before the insert can be stale: a worker
    // that parks later computes its deadline under its service mutex,
    // after the producer's insert, so only parked waiters are marked.
    for (Waiter* w : parked_) {
      if (w->worker == worker && !w->woken.load(std::memory_order_relaxed) &&
          std::find(stale_.begin(), stale_.end(), w) == stale_.end()) {
        stale_.push_back(w);
      }
    }
    wakes = step_locked();
  }
  flush_wakes(std::move(wakes), nullptr);
}

void VirtualClock::park(Waiter& w, std::unique_lock<std::mutex>& lock,
                        std::condition_variable& cv, const std::function<bool()>& wake) {
  std::vector<PendingWake> wakes;
  {
    std::lock_guard g(mu_);
    parked_.push_back(&w);
    wakes = step_locked();
  }
  // The step may have selected wakes (possibly our own waiter). Deliver
  // them before blocking; flush_wakes may briefly release `lock`, which is
  // fine because the wait below re-evaluates its predicate first. A wake
  // aimed at us is then seen via `woken` on that first evaluation.
  flush_wakes(std::move(wakes), &lock);
  cv.wait(lock, [&] { return w.woken.load(std::memory_order_acquire) || wake(); });
  {
    std::lock_guard g(mu_);
    std::erase(parked_, &w);
    std::erase(stale_, &w);  // it woke on its own predicate before being re-validated
    if (w.woken.load(std::memory_order_relaxed)) --pending_wakes_;
  }
}

void VirtualClock::wait(int worker, std::unique_lock<std::mutex>& lock,
                        std::condition_variable& cv, const std::function<bool()>& wake) {
  Waiter w{worker, lock.mutex(), &cv, Clock::time_point{}, /*has_deadline=*/false};
  park(w, lock, cv, wake);
}

void VirtualClock::wait_until(int worker, std::unique_lock<std::mutex>& lock,
                              std::condition_variable& cv, Clock::time_point deadline,
                              const std::function<bool()>& wake) {
  {
    std::lock_guard g(mu_);
    if (now_ >= deadline) return;  // already due — caller re-checks its queue
  }
  Waiter w{worker, lock.mutex(), &cv, deadline, /*has_deadline=*/true};
  park(w, lock, cv, wake);
}

void VirtualClock::begin_dispatch(int worker, Clock::time_point due) {
  TurnRequest req{worker, due};
  std::unique_lock g(mu_);
  turn_requests_.push_back(&req);
  auto wakes = step_locked();
  if (!wakes.empty()) {
    g.unlock();
    flush_wakes(std::move(wakes), nullptr);
    g.lock();
  }
  turn_cv_.wait(g, [&] { return req.granted; });
  std::erase(turn_requests_, &req);
}

void VirtualClock::end_dispatch() {
  std::vector<PendingWake> wakes;
  {
    std::lock_guard g(mu_);
    turn_active_ = false;
    wakes = step_locked();
  }
  flush_wakes(std::move(wakes), nullptr);
}

std::vector<VirtualClock::PendingWake> VirtualClock::step_locked() {
  std::vector<PendingWake> wakes;
  // Quiescence: no event executing (turn or pin), no wake still being
  // absorbed, and every registered worker either parked or queued for a
  // dispatch turn. Anything else means a thread is still computing and may
  // yet insert earlier events.
  if (pins_ > 0 || turn_active_ || pending_wakes_ > 0) return wakes;
  if (workers_ == 0) return wakes;
  if (static_cast<int>(parked_.size() + turn_requests_.size()) < workers_) return wakes;

  // Re-validate stale registrations first: a producer inserted work into
  // these waiters' queues since they parked, so their registered deadlines
  // may overshoot the true next event. Wake them; they re-check their
  // queues and re-park. No other registration can overshoot its queue.
  if (!stale_.empty()) {
    for (Waiter* w : stale_) {
      w->woken.store(true, std::memory_order_release);
      wakes.push_back({w->mu, w->cv});
    }
    stale_.clear();
    pending_wakes_ += static_cast<int>(wakes.size());
    notifies_in_flight_ += static_cast<int>(wakes.size());
    wakeups_ += wakes.size();
    return wakes;
  }

  // Grant the earliest pending dispatch (already-due event). The grantee
  // waits on turn_cv_ under mu_ itself, so notifying here is race-free.
  // With a WakePolicy installed and >1 request pending, the policy picks
  // which dispatch goes first instead of the (due, worker) minimum.
  if (!turn_requests_.empty()) {
    TurnRequest* best;
    if (wake_policy_ != nullptr && turn_requests_.size() > 1) {
      std::vector<TurnRequest*> sorted(turn_requests_);
      std::sort(sorted.begin(), sorted.end(), [](const TurnRequest* a, const TurnRequest* b) {
        return std::tie(a->due, a->worker) < std::tie(b->due, b->worker);
      });
      std::vector<RunnableStep> steps;
      steps.reserve(sorted.size());
      for (const TurnRequest* r : sorted) {
        steps.push_back({RunnableStep::Kind::kDispatch, r->worker, r->due});
      }
      best = sorted[std::min(wake_policy_->choose(steps), sorted.size() - 1)];
    } else {
      best = turn_requests_.front();
      for (TurnRequest* r : turn_requests_) {
        if (std::tie(r->due, r->worker) < std::tie(best->due, best->worker)) best = r;
      }
    }
    best->granted = true;
    turn_active_ = true;
    turn_cv_.notify_all();
    return wakes;
  }

  // Everyone idle: jump time to the earliest armed deadline and wake that
  // waiter (exactly one — ties resolve by worker id, and the runner-up is
  // woken by a later step once this event ran to completion). A WakePolicy
  // may instead pick any armed deadline; time jumps to the chosen one
  // (monotonically — never backwards past a bypassed earlier deadline,
  // which simply fires at a later step as an already-due wake).
  Waiter* best = nullptr;
  if (wake_policy_ != nullptr) {
    std::vector<Waiter*> armed;
    for (Waiter* w : parked_) {
      if (w->has_deadline) armed.push_back(w);
    }
    if (armed.size() > 1) {
      std::sort(armed.begin(), armed.end(), [](const Waiter* a, const Waiter* b) {
        return std::tie(a->deadline, a->worker) < std::tie(b->deadline, b->worker);
      });
      std::vector<RunnableStep> steps;
      steps.reserve(armed.size());
      for (const Waiter* w : armed) {
        steps.push_back({RunnableStep::Kind::kTimer, w->worker, w->deadline});
      }
      best = armed[std::min(wake_policy_->choose(steps), armed.size() - 1)];
    } else if (armed.size() == 1) {
      best = armed.front();
    }
  } else {
    for (Waiter* w : parked_) {
      if (!w->has_deadline) continue;
      if (best == nullptr ||
          std::tie(w->deadline, w->worker) < std::tie(best->deadline, best->worker)) {
        best = w;
      }
    }
  }
  if (best == nullptr) return wakes;  // fully idle: nothing armed, time stands still
  if (best->deadline > now_) now_ = best->deadline;
  best->woken.store(true, std::memory_order_release);
  ++pending_wakes_;
  ++notifies_in_flight_;
  ++wakeups_;
  wakes.push_back({best->mu, best->cv});
  return wakes;
}

void VirtualClock::flush_wakes(std::vector<PendingWake> wakes,
                               std::unique_lock<std::mutex>* held) {
  if (wakes.empty()) return;
  // A notify is only guaranteed to land if it is issued while holding the
  // waiter's own mutex: the waiter is then either already blocked (the
  // notify wakes it) or has yet to evaluate its predicate under that mutex
  // (and will observe `woken`). Issuing it under mu_ alone can fall into
  // the gap between predicate check and block and be lost forever.
  std::size_t others = 0;
  for (const PendingWake& wk : wakes) {
    if (held != nullptr && wk.mu == held->mutex()) {
      wk.cv->notify_all();  // we already hold this waiter's mutex
    } else {
      ++others;
    }
  }
  if (others > 0) {
    // Never hold one service mutex while acquiring another — that is the
    // only place a lock cycle between services could form. Dropping the
    // caller's lock is safe: park's cv.wait re-checks its predicate.
    if (held != nullptr) held->unlock();
    for (const PendingWake& wk : wakes) {
      if (held != nullptr && wk.mu == held->mutex()) continue;
      std::lock_guard wl(*wk.mu);
      wk.cv->notify_all();
    }
    if (held != nullptr) held->lock();
  }
  std::lock_guard g(mu_);
  notifies_in_flight_ -= static_cast<int>(wakes.size());
  if (notifies_in_flight_ == 0) notify_drain_cv_.notify_all();
}

}  // namespace samoa::time
