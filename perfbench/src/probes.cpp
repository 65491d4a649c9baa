#include "probes.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_quantile(std::size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

ProcSnapshot proc_snapshot() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcSnapshot s;
  s.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  s.ctx_switches = static_cast<double>(ru.ru_nvcsw) + static_cast<double>(ru.ru_nivcsw);
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  HostCpu h;
  if (cpu == "cpu") {
    h.steal = steal;
    h.busy = user + nice + system + irq + softirq;
  }
  return h;
}

int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

int pin_to_first_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++taken;
    }
  }
  if (taken == 0 || sched_setaffinity(0, sizeof chosen, &chosen) != 0) return 0;
  return taken;
}

ThreadSampler::ThreadSampler() : peak_(thread_count()) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const int n = thread_count();
      int prev = peak_.load(std::memory_order_relaxed);
      while (n > prev && !peak_.compare_exchange_weak(prev, n, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

ThreadSampler::~ThreadSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string args_field(const std::string& args_json) {
  return args_json.empty() ? "" : ",\"args\":" + args_json;
}

}  // namespace

void TraceLog::add(std::string event) {
  std::lock_guard lock(mu_);
  events_.push_back(std::move(event));
}

void TraceLog::process_name(int pid, const std::string& name) {
  if (!enabled_) return;
  {
    std::lock_guard lock(mu_);
    if (!named_.insert(pid).second) return;
  }
  add("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
      ",\"args\":{\"name\":" + quoted(name) + "}}");
}

void TraceLog::complete(const std::string& name, const std::string& cat, int pid, int tid,
                        double ts_us, double dur_us, const std::string& args_json) {
  if (!enabled_) return;
  add("{\"name\":" + quoted(name) + ",\"cat\":" + quoted(cat) + ",\"ph\":\"X\",\"pid\":" +
      std::to_string(pid) + ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + num(ts_us) +
      ",\"dur\":" + num(dur_us) + args_field(args_json) + "}");
}

void TraceLog::instant(const std::string& name, const std::string& cat, int pid, int tid,
                       double ts_us, const std::string& args_json) {
  if (!enabled_) return;
  add("{\"name\":" + quoted(name) + ",\"cat\":" + quoted(cat) + ",\"ph\":\"i\",\"s\":\"t\",\"pid\":" +
      std::to_string(pid) + ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + num(ts_us) +
      args_field(args_json) + "}");
}

void TraceLog::async_span(const std::string& name, const std::string& cat, int pid,
                          std::uint64_t id, double ts_us, double end_us,
                          const std::string& args_json) {
  if (!enabled_) return;
  const std::string head = "{\"name\":" + quoted(name) + ",\"cat\":" + quoted(cat) +
                           ",\"id\":" + std::to_string(id) + ",\"pid\":" +
                           std::to_string(pid) + ",\"tid\":0";
  add(head + ",\"ph\":\"b\",\"ts\":" + num(ts_us) + args_field(args_json) + "}");
  add(head + ",\"ph\":\"e\",\"ts\":" + num(end_us) + "}");
}

std::size_t TraceLog::size() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

bool TraceLog::write(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
