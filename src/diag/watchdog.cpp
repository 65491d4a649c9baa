#include "diag/watchdog.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "time/clock.hpp"

namespace samoa::diag {

DeadlockWatchdog::DeadlockWatchdog(WatchdogOptions opts) : opts_(std::move(opts)) {
  if (opts_.poll <= std::chrono::milliseconds(0)) opts_.poll = std::chrono::milliseconds(50);
  thread_ = std::thread([this] { loop(); });
}

DeadlockWatchdog::~DeadlockWatchdog() {
  {
    std::unique_lock lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  thread_.join();
}

void DeadlockWatchdog::loop() {
  auto& reg = WaitRegistry::instance();
  std::uint64_t last_epoch = reg.progress_epoch();
  auto last_change = std::chrono::steady_clock::now();
  bool reported_this_stall = false;
  // Clock-source-aware budgets: when watching a virtual clock, track the
  // last simulated timestamp we saw and the wall moment it last moved.
  const bool track_virtual = opts_.clock != nullptr && opts_.clock->is_virtual();
  Clock::time_point last_virtual_now =
      track_virtual ? opts_.clock->now() : Clock::time_point{};
  auto last_virtual_change = last_change;
  std::unique_lock lock(mu_);
  while (!stop_.load(std::memory_order_relaxed)) {
    cv_.wait_for(lock, opts_.poll, [this] { return stop_.load(std::memory_order_relaxed); });
    if (stop_.load(std::memory_order_relaxed)) break;
    const auto epoch = reg.progress_epoch();
    const auto now = std::chrono::steady_clock::now();
    if (track_virtual) {
      const auto vnow = opts_.clock->now();
      if (vnow != last_virtual_now) {
        // Simulated time moving is progress even when nothing publishes:
        // the clock's loop keeps firing events. Restart both windows and
        // re-arm the stuck detector.
        last_virtual_now = vnow;
        last_virtual_change = now;
        last_change = now;
        reported_this_stall = false;
        reported_stuck_wait_ = false;
      }
    }
    // Stuck-wait check first: it fires even while the epoch advances
    // (background traffic completing does not prove the oldest parked
    // thread will ever run again). Under a virtual clock a wait's wall age
    // only counts while the simulation is frozen — a long virtual sleep
    // parks for real wall time without being wedged.
    std::string reason;
    if (opts_.stuck_wait_budget > std::chrono::milliseconds(0)) {
      auto age = std::chrono::duration_cast<std::chrono::milliseconds>(reg.oldest_wait_age());
      if (track_virtual) {
        const auto frozen =
            std::chrono::duration_cast<std::chrono::milliseconds>(now - last_virtual_change);
        age = std::min(age, frozen);
      }
      if (age >= opts_.stuck_wait_budget) {
        if (!reported_stuck_wait_) {
          reason = "oldest wait parked for " + std::to_string(age.count()) + "ms (budget " +
                   std::to_string(opts_.stuck_wait_budget.count()) + "ms)";
        }
      } else {
        reported_stuck_wait_ = false;  // the starved wait resolved; re-arm
      }
    }
    if (reason.empty()) {
      if (epoch != last_epoch) {
        last_epoch = epoch;
        last_change = now;
        reported_this_stall = false;
        continue;
      }
      if (reported_this_stall || now - last_change < opts_.budget) continue;
      reason = "no progress for " + std::to_string(opts_.budget.count()) + "ms";
    }
    // Only a *blocked* quiescence counts: an idle process (no parked
    // waits, no stuck queue) is healthy.
    Dump dump = reg.snapshot();
    const bool stuck_queue =
        std::any_of(dump.pools.begin(), dump.pools.end(),
                    [](const PoolState& p) { return !p.queued_tags.empty() && p.idle == 0; });
    if (dump.waits.empty() && !stuck_queue) {
      last_change = now;  // idle, not stalled; restart the window
      continue;
    }
    stalls_.fetch_add(1, std::memory_order_relaxed);
    reported_this_stall = true;
    reported_stuck_wait_ = true;
    lock.unlock();
    emit(dump, reason);
    if (opts_.on_stall) opts_.on_stall(dump);
    if (opts_.abort_on_stall) {
      std::fflush(stderr);
      std::abort();
    }
    lock.lock();
  }
}

void DeadlockWatchdog::emit(const Dump& dump, const std::string& reason) {
  const std::string header = "[" + opts_.name + "] " + reason + "; " +
                             (dump.cycle.empty() ? "no cycle named (see wait-for edges)"
                                                 : "DEADLOCK cycle detected") +
                             "\n";
  if (opts_.dump_to_stderr) {
    std::fputs(header.c_str(), stderr);
    std::fputs(dump.to_text().c_str(), stderr);
    std::fflush(stderr);
  }
  if (!opts_.dump_dir.empty()) {
    const std::string base =
        opts_.dump_dir + "/" + opts_.name + "-" + std::to_string(::getpid());
    std::ofstream txt(base + ".txt");
    txt << header << dump.to_text();
    std::ofstream json(base + ".json");
    json << dump.to_json() << "\n";
  }
}

DeadlockWatchdog* install_env_watchdog(const std::string& name, bool abort_on_stall) {
  const char* ms = std::getenv("SAMOA_WATCHDOG");
  if (ms == nullptr) return nullptr;
  WatchdogOptions opts;
  const long parsed = std::atol(ms);
  opts.budget = std::chrono::milliseconds(parsed > 0 ? parsed : 5000);
  opts.name = name;
  opts.abort_on_stall = abort_on_stall;
  if (const char* dir = std::getenv("SAMOA_WATCHDOG_DIR")) opts.dump_dir = dir;
  if (const char* stuck = std::getenv("SAMOA_WATCHDOG_STUCK")) {
    opts.stuck_wait_budget = std::chrono::milliseconds(std::atol(stuck));
  }
  static DeadlockWatchdog* dog = nullptr;  // process lifetime, installed once
  if (dog == nullptr) dog = new DeadlockWatchdog(std::move(opts));
  return dog;
}

}  // namespace samoa::diag
