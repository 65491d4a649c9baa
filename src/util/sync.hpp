// Small synchronisation helpers built on mutex + condition_variable,
// following the C++ Core Guidelines concurrency rules: RAII only (CP.20),
// every wait has a condition (CP.42), each mutex lives next to the data it
// guards (CP.50).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace samoa {

/// One-shot event: starts unset, `set` releases all current & future waiters.
class OneShotEvent {
 public:
  void set();
  bool is_set() const;
  void wait();
  bool wait_for(std::chrono::milliseconds timeout);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool set_ = false;
};

/// Calibrated busy-wait used by benchmarks to emulate CPU-bound handler
/// work without being descheduled (sleep) or optimised away.
void spin_for(std::chrono::nanoseconds d);

}  // namespace samoa
