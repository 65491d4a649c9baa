// Measurement plumbing shared by the workloads: the metric report, sample
// quantiles, process probes (CPU, context switches, RSS, thread count) and
// the Chrome trace-event recorder. Everything here observes the library
// from outside; nothing reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using WallClock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; set() overwrites an existing name.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty set.
double quantile(std::vector<double> v, double q);

/// The tail quantile a sample of `n` supports: the highest percentile with
/// at least ten samples beyond it, capped at the 99th.
double tail_quantile(std::size_t n);

double median(std::vector<double> v);

// --- Process probes --------------------------------------------------------

struct ProcSnapshot {
  double cpu_s = 0;       // user + system CPU of the whole process
  double ctx_switches = 0;  // voluntary + involuntary
};
ProcSnapshot proc_snapshot();

/// Peak resident set size of the process so far.
double peak_rss_mb();

/// Host-wide CPU time accounting (/proc/stat): time the hypervisor ran
/// someone else on this machine's CPUs ("steal") and time they were busy.
struct HostCpu {
  double steal = 0;
  double busy = 0;
};
HostCpu host_cpu();

/// Current thread count of the process (/proc/self/status "Threads").
int thread_count();

/// Restrict the calling thread, and every thread it creates afterwards, to
/// the lowest `n` CPUs it may run on. Returns the CPUs now allowed.
int pin_to_first_cpus(int n);

/// Samples the process thread count every few milliseconds on its own
/// thread; peak() is the highest count seen since construction or reset().
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();

  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  int peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset() { peak_.store(thread_count(), std::memory_order_relaxed); }

 private:
  std::atomic<int> peak_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- Chrome trace-event recorder ---------------------------------------------

/// Collects trace events in memory and writes them as Chrome trace-event
/// JSON (load in chrome://tracing or ui.perfetto.dev). Disabled recorders
/// drop every event at the cost of one branch.
class TraceLog {
 public:
  explicit TraceLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Names a process row (one per site, plus the benchmark's own rows).
  void process_name(int pid, const std::string& name);
  /// A span [ts, ts + dur] in microseconds.
  void complete(const std::string& name, const std::string& cat, int pid, int tid, double ts_us,
                double dur_us, const std::string& args_json = "");
  /// A zero-length mark.
  void instant(const std::string& name, const std::string& cat, int pid, int tid, double ts_us,
               const std::string& args_json = "");
  /// One async span keyed by `id` (a message's trace id), drawn on its own
  /// track of process `pid` from begin to end.
  void async_span(const std::string& name, const std::string& cat, int pid, std::uint64_t id,
                  double ts_us, double end_us, const std::string& args_json = "");

  std::size_t size() const;
  bool write(const std::string& path) const;

 private:
  void add(std::string event);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::string> events_;
  std::set<int> named_;  // pids that already have a process_name event
};

}  // namespace perfbench
