#include "util/sync.hpp"

#include <atomic>
#include <stdexcept>

#include "diag/wait_registry.hpp"

// Every actual park below registers a diag::ScopedWait (kExternal). Besides
// showing up in blocked-state dumps, this is a liveness requirement: a
// handler body blocking on one of these primitives parks a pool worker,
// and only an instrumented wait tells the ElasticThreadPool to stop
// counting that worker as runnable and grow for the tasks queued behind it
// (see util/thread_pool.hpp). Nested registration is handled by ScopedWait
// itself — an already-registered wait (e.g. Computation::wait_done) that
// parks through OneShotEvent stays a single record.

namespace samoa {

void WaitGroup::add(std::size_t n) {
  std::unique_lock lock(mu_);
  count_ += n;
}

void WaitGroup::done() {
  std::unique_lock lock(mu_);
  if (count_ == 0) throw std::logic_error("WaitGroup::done without matching add");
  if (--count_ == 0) cv_.notify_all();
}

void WaitGroup::wait() {
  std::unique_lock lock(mu_);
  if (count_ == 0) return;
  diag::ScopedWait wait(diag::WaitKind::kExternal, this, "wait-group", 0, 0, count_);
  cv_.wait(lock, [this] { return count_ == 0; });
}

bool WaitGroup::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  if (count_ == 0) return true;
  diag::ScopedWait wait(diag::WaitKind::kExternal, this, "wait-group", 0, 0, count_);
  return cv_.wait_for(lock, timeout, [this] { return count_ == 0; });
}

std::size_t WaitGroup::pending() const {
  std::unique_lock lock(mu_);
  return count_;
}

void OneShotEvent::set() {
  std::unique_lock lock(mu_);
  set_ = true;
  cv_.notify_all();
}

bool OneShotEvent::is_set() const {
  std::unique_lock lock(mu_);
  return set_;
}

void OneShotEvent::wait() {
  std::unique_lock lock(mu_);
  if (set_) return;
  diag::ScopedWait wait(diag::WaitKind::kExternal, this, "one-shot-event", 0, 0, 0);
  cv_.wait(lock, [this] { return set_; });
}

bool OneShotEvent::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  if (set_) return true;
  diag::ScopedWait wait(diag::WaitKind::kExternal, this, "one-shot-event", 0, 0, 0);
  return cv_.wait_for(lock, timeout, [this] { return set_; });
}

void spin_for(std::chrono::nanoseconds d) {
  const auto deadline = std::chrono::steady_clock::now() + d;
  // The atomic fence keeps the loop observable so it is not elided.
  std::atomic<unsigned> sink{0};
  while (std::chrono::steady_clock::now() < deadline) {
    sink.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace samoa
