// Deadlock watchdog — the detection half of the diag layer.
//
// A background thread samples the WaitRegistry's progress epoch (bumped on
// every version publish, pool task completion and computation completion).
// If the epoch does not move for a full budget while at least one thread
// is parked in a registered wait (or a pool has queued work it cannot
// schedule), the run is stalled: the watchdog takes a blocked-state
// snapshot, derives wait-for edges, runs cycle detection, and emits the
// dump (human-readable to stderr, JSON + text to files when a dump
// directory is configured) before invoking the configured reaction —
// fail-fast abort for tests and benches, or a callback for embedders.
//
// Off by default: nothing constructs a watchdog unless a test, bench or
// embedder installs one. Virtual-time aware: the no-progress budget is
// measured in wall time (a wedged simulation stops consuming wall time
// in handlers but its watchdog thread keeps running), and the stall
// predicate ignores an *idle* process — all workers idle, nothing queued,
// nothing parked — so a quiescent virtual-time fixture never trips it.
// Pointing WatchdogOptions::clock at the run's VirtualClock additionally
// treats simulated-time advancement as progress and gates the stuck-wait
// detector on the virtual clock being frozen.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <functional>
#include <string>
#include <thread>

#include "diag/wait_registry.hpp"

namespace samoa::time {
class ClockSource;
}

namespace samoa::diag {

struct WatchdogOptions {
  /// No-progress window that counts as a stall.
  std::chrono::milliseconds budget{2000};
  std::chrono::milliseconds poll{50};
  /// When > 0, a single wait parked longer than this is a stall *even if
  /// the global progress epoch keeps moving* — background traffic (acks,
  /// retransmissions, ticks) completing work does not prove the
  /// head-of-line computation is live. Disabled by default because some
  /// embedders legitimately hold long waits (e.g. a drain over a long
  /// experiment); tests of bounded workloads should set it.
  std::chrono::milliseconds stuck_wait_budget{0};
  /// When set to a *virtual* clock, the budgets become clock-source-aware:
  /// virtual time advancing counts as progress (the simulation is live
  /// even when no gate publishes), and the stuck-wait detector only trips
  /// once the virtual clock has been frozen for a full stuck budget of
  /// wall time. A legitimately long virtual experiment — hours of
  /// simulated time, every wait parked on a far deadline — therefore
  /// never false-trips, while a wedged simulation (virtual time stuck
  /// because an event never returns or a pin is never released) still
  /// does. Ignored for wall clocks, whose now() is the watchdog's own
  /// timebase. The clock must outlive the watchdog.
  time::ClockSource* clock = nullptr;
  /// Included in dump headers and file names.
  std::string name = "watchdog";
  /// When non-empty, the stall dump is written to
  /// <dump_dir>/<name>-<pid>.{txt,json}.
  std::string dump_dir;
  /// Print the text dump to stderr on stall (on by default: a wedged run
  /// should self-diagnose even when file output is not configured).
  bool dump_to_stderr = true;
  /// Abort the process after dumping (fail fast instead of hanging until
  /// an external timeout). The dump is flushed first.
  bool abort_on_stall = false;
  /// Invoked with the dump on every detected stall.
  std::function<void(const Dump&)> on_stall;
};

class DeadlockWatchdog {
 public:
  explicit DeadlockWatchdog(WatchdogOptions opts);
  ~DeadlockWatchdog();

  DeadlockWatchdog(const DeadlockWatchdog&) = delete;
  DeadlockWatchdog& operator=(const DeadlockWatchdog&) = delete;

  /// Number of stalls detected so far.
  std::uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }

  /// Manually reset the no-progress timer (e.g. between test iterations
  /// whose boundaries do not bump the progress epoch).
  void kick() { WaitRegistry::instance().note_progress(); }

 private:
  void loop();
  void emit(const Dump& dump, const std::string& reason);

  WatchdogOptions opts_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> stalls_{0};
  bool reported_stuck_wait_ = false;  // watchdog thread only
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
};

/// Install a process-lifetime watchdog if SAMOA_WATCHDOG is set in the
/// environment (value = budget in milliseconds, empty/0 = 5000). Dump
/// files go to $SAMOA_WATCHDOG_DIR when set; SAMOA_WATCHDOG_STUCK (ms)
/// arms the stuck-wait detector. Benches call this first thing in main so
/// a wedged run self-diagnoses in CI; returns the watchdog (or nullptr
/// when the variable is unset).
DeadlockWatchdog* install_env_watchdog(const std::string& name, bool abort_on_stall = true);

}  // namespace samoa::diag
