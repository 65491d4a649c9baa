// perfbench — the end-to-end atomic-broadcast benchmark binary.
//
//   perfbench --workload <abcast_wall|fleet_virtual|faults_virtual>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//   perfbench --selftest
//
// Prints a human-readable metric table, then one line
//   RESULT {"correct":..,"attempted":..,"failed":..,"e2e":{..},"layers":{..}}
// carrying every metric with its unit (run.py turns it into the benchmark's
// result line). Exits non-zero on a correctness violation. With --trace 1
// the workload runs twice on the same seed, untraced (for half the
// seconds) and then traced; the per-layer metrics come from the traced
// pass, the Chrome trace is written to --trace-out, and
// bench.trace_overhead_pct compares the two passes' CPU per message.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

#include "workloads.hpp"

namespace {

using namespace perfbench;

void on_deadline(int) {
  static const char kMsg[] = "perfbench: run exceeded its time budget, aborting\n";
  (void)!write(STDERR_FILENO, kMsg, sizeof kMsg - 1);
  _exit(3);
}

/// Ends the process if a run outlives its budget: an overloaded or wedged
/// fleet must never hang the benchmark.
void arm_deadline(unsigned budget_s) {
  struct sigaction sa {};
  sa.sa_handler = on_deadline;
  sigaction(SIGALRM, &sa, nullptr);
  alarm(budget_s);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const Report& r) {
  std::string out = "{";
  for (std::size_t i = 0; i < r.items().size(); ++i) {
    const Metric& m = r.items()[i];
    out += (i ? "," : "") + std::string("\"") + m.name + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const Report& r) {
  std::printf("%s\n", title);
  for (const Metric& m : r.items()) {
    std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const RunOptions& ro, bool trace, const std::string& trace_out) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", ro.workload.c_str(),
              static_cast<unsigned long long>(ro.seed), ro.seconds, trace ? 1 : 0);
  WorkloadResult res;
  TraceLog off(false);
  const HostCpu host0 = host_cpu();
  // In a traced run the untraced pass only serves the overhead comparison
  // (per-message figures), so it runs half as long to bound the run time.
  RunOptions untraced = ro;
  if (trace) untraced.seconds = ro.seconds / 2;
  if (!run_workload(untraced, off, res)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", ro.workload.c_str());
    return 2;
  }
  // Share of this machine's demanded CPU time the hypervisor gave to other
  // guests during the measured pass: high values explain noisy wall times.
  const HostCpu host1 = host_cpu();
  const double steal = host1.steal - host0.steal;
  const double demand = steal + host1.busy - host0.busy;
  if (trace) {
    TraceLog on(true);
    WorkloadResult traced;
    run_workload(ro, on, traced);
    const double base = res.e2e.find("cpu_us_per_msg")->value;
    const double with = traced.e2e.find("cpu_us_per_msg")->value;
    traced.layers.set("bench.trace_overhead_pct", base > 0 ? 100.0 * (with / base - 1.0) : 0.0,
                      "%");
    traced.layers.set("bench.trace_events", static_cast<double>(on.size()), "count");
    if (!on.write(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write trace to %s\n", trace_out.c_str());
      return 2;
    }
    std::printf("chrome trace: %s (%zu events)\n", trace_out.c_str(), on.size());
    // Both passes must be correct; the traced pass supplies the report.
    traced.correct = traced.correct && res.correct;
    traced.problems.insert(traced.problems.end(), res.problems.begin(), res.problems.end());
    res = std::move(traced);
  }
  res.layers.set("bench.host_steal_frac", demand > 0 ? steal / demand : 0.0, "frac");
  for (const auto& line : res.notes) std::printf("  %s\n", line.c_str());
  print_table("end-to-end metrics", res.e2e);
  print_table("per-layer metrics", res.layers);
  std::printf("attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), res.correct ? "yes" : "NO");
  for (const auto& p : res.problems) std::printf("  violation: %s\n", p.c_str());
  std::printf("RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"e2e\":%s,\"layers\":%s}\n",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), json_metrics(res.e2e).c_str(),
              json_metrics(res.layers).c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}

/// Determinism self-test: on both virtual workloads the same seed must
/// reproduce the SimNetwork event hash and every virtual-time metric
/// exactly, and another seed must change the hash.
int selftest() {
  int failures = 0;
  for (const char* workload : {"fleet_virtual", "faults_virtual"}) {
    TraceLog off(false);
    RunOptions ro;
    ro.workload = workload;
    ro.seconds = 1;
    WorkloadResult a, b, c;
    ro.seed = 7;
    run_workload(ro, off, a);
    run_workload(ro, off, b);
    ro.seed = 8;
    run_workload(ro, off, c);
    const auto check = [&](bool ok, const std::string& what) {
      std::printf("%s %s: %s\n", ok ? "ok  " : "FAIL", workload, what.c_str());
      if (!ok) ++failures;
    };
    check(a.correct && b.correct && c.correct, "every run passes its correctness checks");
    check(a.event_hash == b.event_hash, "same seed, same event hash");
    check(a.event_hash != c.event_hash, "another seed, another event hash");
    for (const auto& name : virtual_metric_names()) {
      const Report& ra = a.e2e.find(name) ? a.e2e : a.layers;
      const Report& rb = b.e2e.find(name) ? b.e2e : b.layers;
      const Metric* ma = ra.find(name);
      const Metric* mb = rb.find(name);
      if (ma == nullptr && mb == nullptr) continue;
      check(ma && mb && ma->value == mb->value, "same seed, same " + name);
    }
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions ro;
  bool trace = false;
  std::string trace_out = "perfbench_trace.json";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--selftest") {
      arm_deadline(170);
      return selftest();
    } else if (arg == "--workload") {
      ro.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      ro.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      ro.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      trace = value() == "1";
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || !(ro.seconds > 0 && ro.seconds <= 60)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <abcast_wall|fleet_virtual|faults_virtual> "
                 "--seed <n> --seconds <1..60> --trace <0|1> [--trace-out <file>]\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  arm_deadline(170);
  return run(ro, trace, trace_out);
}
