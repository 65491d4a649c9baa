// ChaosEngine — arms a FaultPlan on a TimerService.
//
// Every action of the plan becomes one timer callback at its virtual-time
// offset; under a VirtualClock each fires as its own event on the clock's
// loop, so fault injection interleaves deterministically with protocol
// events. The engine keeps a timestamped log of everything it
// applied (for chaos-test summaries) plus per-kind counters.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "net/timer_service.hpp"
#include "util/stats.hpp"

namespace samoa::chaos {

class ChaosEngine {
 public:
  /// `timers` must outlive the engine and drive the same clock as `net`.
  ChaosEngine(net::SimNetwork& net, net::TimerService& timers);

  /// Schedule every action of the plan (relative to now). Can be called
  /// several times to layer plans.
  void arm(const FaultPlan& plan);

  struct Stats {
    Counter crashes;
    Counter recoveries;
    Counter partitions;
    Counter heals;
    Counter loss_bursts;
    Counter calls;
  };
  const Stats& stats() const { return stats_; }

  /// Human-readable record of the applied actions, in firing order.
  std::vector<std::string> log() const;

 private:
  void apply(const FaultAction& action);
  void note(const std::string& line);

  net::SimNetwork& net_;
  net::TimerService& timers_;
  Stats stats_;
  bool burst_active_ = false;        // guarded by mu_
  net::LinkOptions saved_defaults_;  // defaults to restore after a burst
  mutable std::mutex mu_;
  std::vector<std::string> log_;
};

}  // namespace samoa::chaos
