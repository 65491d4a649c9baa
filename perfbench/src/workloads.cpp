#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "chaos/chaos_engine.hpp"
#include "fleet.hpp"
#include "net/timer_service.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace perfbench {
namespace {

using namespace std::chrono;
using samoa::gc::DetectorImpl;
using samoa::gc::GcOptions;
using samoa::net::LinkOptions;

// --- abcast_wall ---------------------------------------------------------------
constexpr int kWallSites = 5;
constexpr auto kWallLink = microseconds(200);
/// The rate abcast_wall reports its metrics at (the "reported rung"), and
/// the ladder climbed above it for max_rate_msgs_s (stays below the ~1000
/// msgs/s collapse: a rung that misses the limit ends the climb).
constexpr double kReportedRate = 100;
constexpr double kLadderRates[] = {250, 400, 550, 700};
constexpr double kP99LimitMs = 25;     // max_rate_msgs_s latency limit
constexpr double kBacklogLimitS = 0.1;  // undelivered backlog, in seconds of offered load
constexpr double kDrainGraceS = 8;     // a rung must drain this soon after its last due
constexpr double kSingleSiteRate = 100;
constexpr int kSetupReps = 31;

// --- fleet_virtual -----------------------------------------------------------
constexpr int kFleetSites = 20;
constexpr auto kFleetInterval = milliseconds(10);  // 100 msgs per virtual second
constexpr double kFleetMsgsPerSecond = 7;           // messages per second of --seconds
constexpr int kFleetSetupReps = 15;

// --- faults_virtual ----------------------------------------------------------
constexpr int kFaultSites = 5;
constexpr auto kFaultInterval = milliseconds(5);  // 200 msgs per virtual second
constexpr int kFaultMsgs = 80;                     // per episode
constexpr double kFaultEpisodesPerSecond = 1.5;    // episodes per second of --seconds

/// The virtual workloads run pinned to this many CPUs: under virtual time
/// one event runs at a time, and on a shared host cross-CPU handoffs
/// between the simulation's threads are the main source of run-to-run
/// spread in wall speed (pinned to two CPUs it fell about fivefold).
constexpr int kVirtualCpus = 2;
constexpr auto kFirstDue = milliseconds(20);  // virtual warm-up before the stream
constexpr auto kHorizonSlack = seconds(3);    // virtual; then the episode gives up
constexpr auto kNudgeAfter = milliseconds(20);  // see the tail nudge in run_scripted

const WallClock::time_point kProcessStart = WallClock::now();

double wall_us(WallClock::time_point t) {
  return duration<double, std::micro>(t - kProcessStart).count();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  samoa::Rng rng(seed * 0x9E3779B97F4A7C15ull ^ (k + 0x632BE59BD9B4E019ull));
  return rng.next();
}

std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

// --- sample accumulation -------------------------------------------------------

/// Everything measured over the windows of one run (one rung, one fleet, or
/// all fault episodes), reduced to metrics by fill_metrics().
struct Samples {
  std::vector<double> origin_ms, all_ms, spread_ms, call_us, done_us, lag_ms, setup_s, setup_wall_s;
  std::uint64_t attempted = 0, delivered = 0;
  double wall_s = 0, clock_ms = 0, cpu_s = 0, ctxsw = 0;
  double sent = 0, net_delivered = 0, dropped = 0;
  double cs_instances = 0, ab_delivered = 0;
  LayerTotals layers;
  int threads_peak = 0;
  std::uint64_t order_mismatches = 0, duplicates = 0, vs_violations = 0;
  std::vector<std::string> problems;
};

struct Window {
  WallClock::time_point wall;
  double clock_ms = 0;
  ProcSnapshot proc;
  double sent = 0, delivered = 0, dropped = 0;
  LayerTotals layers;
};

Window begin_window(Fleet& f, ThreadSampler& threads) {
  threads.reset();
  Window w;
  const auto& st = f.net().stats();
  w.sent = static_cast<double>(st.sent.value());
  w.delivered = static_cast<double>(st.delivered.value());
  w.dropped = static_cast<double>(st.dropped.value());
  w.layers = f.layer_totals();
  w.clock_ms = f.now_ms();
  w.proc = proc_snapshot();
  w.wall = WallClock::now();
  return w;
}

void end_window(Fleet& f, const Window& w, ThreadSampler& threads, Samples& s) {
  const auto wall = WallClock::now();
  const ProcSnapshot proc = proc_snapshot();
  s.wall_s += seconds_between(w.wall, wall);
  s.clock_ms += f.now_ms() - w.clock_ms;
  s.cpu_s += proc.cpu_s - w.proc.cpu_s;
  s.ctxsw += proc.ctx_switches - w.proc.ctx_switches;
  const auto& st = f.net().stats();
  s.sent += static_cast<double>(st.sent.value()) - w.sent;
  s.net_delivered += static_cast<double>(st.delivered.value()) - w.delivered;
  s.dropped += static_cast<double>(st.dropped.value()) - w.dropped;
  const LayerTotals d = f.layer_totals().minus(w.layers);
  s.cs_instances += d.cs_decided_max;
  s.ab_delivered += d.ab_delivered_at_max;
  s.layers.add(d);
  s.threads_peak = std::max(s.threads_peak, threads.peak());
}

/// Adds messages [lo, hi) of an analysed fleet to the samples.
void add_messages(Fleet& f, const Fleet::Analysis& a, std::size_t lo, std::size_t hi,
                  Samples& s) {
  const auto done = f.watcher().results(hi);
  const auto& subs = f.submissions();
  for (std::size_t i = lo; i < hi; ++i) {
    const Submission& sub = subs[i];
    ++s.attempted;
    s.call_us.push_back(sub.call_us);
    s.lag_ms.push_back(sub.lag_ms);
    if (done[i] >= 0) s.done_us.push_back(done[i]);
    if (!a.delivered[i]) continue;
    ++s.delivered;
    if (a.at_origin[i] >= 0) s.origin_ms.push_back(a.at_origin[i] - sub.due_ms);
    if (a.last_live[i] >= 0) s.all_ms.push_back(a.last_live[i] - sub.due_ms);
    if (a.first[i] >= 0 && a.last_live[i] >= 0) s.spread_ms.push_back(a.last_live[i] - a.first[i]);
  }
}

void add_checks(const Fleet::Analysis& a, Samples& s) {
  s.order_mismatches += a.order_mismatches;
  s.duplicates += a.duplicates;
  s.vs_violations += a.vs_violations;
  s.problems.insert(s.problems.end(), a.problems.begin(), a.problems.end());
}

double tail(const std::vector<double>& v) { return quantile(v, tail_quantile(v.size())); }

/// The metrics every workload reports, from its accumulated samples.
void fill_metrics(const Samples& s, WorkloadResult& r) {
  const double msgs = std::max<double>(1, static_cast<double>(s.delivered));
  const double wall = std::max(1e-9, s.wall_s);
  Report& e = r.e2e;
  e.set("setup_s", median(s.setup_s), "s");
  e.set("setup_wall_s", median(s.setup_wall_s), "s");
  e.set("adeliver_p50_ms", median(s.origin_ms), "ms");
  e.set("adeliver_p99_ms", tail(s.origin_ms), "ms");
  e.set("adeliver_all_p99_ms", tail(s.all_ms), "ms");
  e.set("adeliver_samples", static_cast<double>(s.origin_ms.size()), "count");
  e.set("adeliver_tail_quantile", tail_quantile(s.origin_ms.size()), "q");
  e.set("delivered_msgs_s", static_cast<double>(s.delivered) / wall, "1/s");
  e.set("cpu_us_per_msg", s.cpu_s * 1e6 / msgs, "us");
  e.set("packets_per_msg", s.sent / msgs, "count");
  e.set("sim_packets_per_wall_s", s.sent / wall, "1/s");
  e.set("failed_frac",
        s.attempted == 0 ? 0.0
                         : static_cast<double>(s.attempted - s.delivered) /
                               static_cast<double>(s.attempted),
        "frac");
  e.set("peak_rss_mb", peak_rss_mb(), "MB");

  const LayerTotals& L = s.layers;
  Report& l = r.layers;
  l.set("cc.admissions_per_msg", L.admissions / msgs, "count");
  l.set("cc.admit_slow_frac", L.admissions > 0 ? L.admit_slow / L.admissions : 0.0, "frac");
  l.set("cc.gate_waits_per_msg", L.gate_waits / msgs, "count");
  l.set("cc.gate_wait_p50_us", L.gate_wait_p50_ns / 1e3, "us");
  l.set("cc.gate_wait_p99_us", L.gate_wait_p99_ns / 1e3, "us");
  l.set("core.computations_per_msg", L.computations / msgs, "count");
  l.set("core.handler_calls_per_msg", L.handler_calls / msgs, "count");
  l.set("core.exec_batch_mean", L.exec_batches > 0 ? L.exec_dispatched / L.exec_batches : 0.0,
        "count");
  l.set("core.exec_queue_depth_p99", L.exec_queue_depth_p99, "count");
  l.set("core.exec_handoffs_per_msg", L.exec_handoffs / msgs, "count");
  l.set("core.exec_wakeups_per_msg", L.exec_wakeups / msgs, "count");
  l.set("core.exec_overflow", L.exec_overflow, "count");
  l.set("core.threads_peak", s.threads_peak, "count");
  l.set("core.ctxsw_per_msg", s.ctxsw / msgs, "count");
  l.set("net.sent", s.sent, "count");
  l.set("net.delivered", s.net_delivered, "count");
  l.set("net.dropped", s.dropped, "count");
  l.set("time.virtual_ms_per_wall_s", s.clock_ms / wall, "ms/s");
  l.set("gc.cs.instances", s.cs_instances, "count");
  l.set("gc.cs.rounds_per_instance", s.cs_instances > 0 ? L.cs_rounds / s.cs_instances : 0.0,
        "count");
  l.set("gc.ab.batch_mean", s.cs_instances > 0 ? s.ab_delivered / s.cs_instances : 0.0, "count");
  l.set("gc.rc.retransmissions_per_msg", L.rc_retransmissions / msgs, "count");
  l.set("gc.rc.flow_deferred", L.rc_flow_deferred, "count");
  l.set("gc.rc.peak_in_flight", L.rc_peak_in_flight, "count");
  l.set("gc.cs.decision_pulls", L.cs_decision_pulls, "count");
  l.set("gc.fd.suspicions", L.fd_suspicions, "count");
  l.set("gc.rejoins", L.rejoins, "count");
  l.set("gc.ticks_coalesced", L.ticks_coalesced, "count");
  l.set("gc.api.abcast_call_us_p50", median(s.call_us), "us");
  l.set("gc.api.abcast_call_us_p99", tail(s.call_us), "us");
  l.set("gc.api.submit_done_us_p99", tail(s.done_us), "us");
  l.set("gc.deliver_spread_ms_p50", median(s.spread_ms), "ms");
  l.set("verify.vs_violations", static_cast<double>(s.vs_violations), "count");
  l.set("verify.order_mismatches", static_cast<double>(s.order_mismatches), "count");
  l.set("verify.duplicates", static_cast<double>(s.duplicates), "count");
  l.set("bench.gen_lag_p99_ms", tail(s.lag_ms), "ms");

  r.attempted = s.attempted;
  r.failed = s.attempted - s.delivered;
  r.problems.insert(r.problems.end(), s.problems.begin(), s.problems.end());
  if (s.order_mismatches + s.duplicates + s.vs_violations > 0 || !s.problems.empty()) {
    r.correct = false;
  }
}

// --- trace -----------------------------------------------------------------

/// Trace rows: pid 0 holds the benchmark's phases on the wall clock, pids
/// 1..n the sites, and kScenarioPid every message's life and the injected
/// faults, on the fleet clock (wall or virtual).
constexpr int kScenarioPid = 10000;

void trace_phase(TraceLog& t, const std::string& name, WallClock::time_point a,
                 WallClock::time_point b) {
  t.complete(name, "phase", 0, 0, wall_us(a), wall_us(b) - wall_us(a));
}

/// One message's life: due -> abcast() call -> submit computation done ->
/// adeliver at every site, keyed by the message id. `base_us` maps the
/// fleet clock onto the trace timeline; `wall` says whether the fleet clock
/// is the wall clock (on virtual fleets, API calls take no virtual time and
/// carry their wall cost as an argument).
void trace_messages(TraceLog& t, Fleet& f, const Fleet::Analysis& a, std::size_t lo,
                    std::size_t hi, double base_us, bool wall, std::uint64_t id_base) {
  if (!t.enabled()) return;
  const auto done = f.watcher().results(hi);
  const auto& subs = f.submissions();
  for (int i = 0; i < f.size(); ++i) {
    t.process_name(i + 1, "site " + std::to_string(i));
  }
  t.process_name(kScenarioPid, "messages and faults");
  for (std::size_t m = lo; m < hi; ++m) {
    const Submission& s = subs[m];
    const std::string msg = "{\"msg\":" + std::to_string(id_base + m) + "}";
    const double due = base_us + s.due_ms * 1e3;
    const double call = base_us + s.call_start_ms * 1e3;
    const double end = a.last_live[m] >= 0 ? base_us + a.last_live[m] * 1e3 : call;
    t.async_span("abcast m" + std::to_string(id_base + m), "abcast", kScenarioPid, id_base + m,
                 due, end,
                 "{\"origin\":" + std::to_string(s.origin) + "}");
    if (wall) {
      t.complete("generator lag", "gen", kScenarioPid, 1, due, call - due, msg);
      t.complete("abcast()", "api", s.origin + 1, 0, call, s.call_us, msg);
      if (done[m] >= 0) t.complete("submit computation", "api", s.origin + 1, 1, call, done[m], msg);
    } else {
      t.instant("abcast()", "api", s.origin + 1, 0, call,
                "{\"msg\":" + std::to_string(id_base + m) + ",\"wall_us\":" + fmt(s.call_us) +
                    ",\"submit_done_wall_us\":" + fmt(done[m]) + "}");
    }
  }
  for (const auto& d : a.deliveries) {
    if (d.msg < lo || d.msg >= hi) continue;
    t.instant("adeliver m" + std::to_string(id_base + d.msg), "adeliver", d.site + 1,
              static_cast<int>(2 + d.incarnation), base_us + d.at * 1e3,
              "{\"msg\":" + std::to_string(id_base + d.msg) + "}");
  }
}

// --- abcast_wall -------------------------------------------------------------

GcOptions wall_options(std::uint64_t seed) {
  GcOptions opts;  // executor dispatch, VCAbasic, heartbeat detector
  opts.rng_seed = seed;
  // Calmed periodic machinery, as in bench_abcast: the default timers
  // flood a wall-clock run with heartbeats and spurious consensus retries.
  opts.heartbeat_interval = microseconds(50'000);
  opts.fd_timeout = microseconds(500'000);
  opts.retransmit_interval = microseconds(50'000);
  opts.retransmit_timeout = microseconds(200'000);
  opts.retransmit_backoff_cap = microseconds(400'000);
  opts.cs_retry_interval = microseconds(200'000);
  opts.cs_retry_timeout = microseconds(400'000);
  return opts;
}

struct Rung {
  double rate = 0;
  std::size_t lo = 0, hi = 0;
  bool overloaded = false;  // stopped early on a growing backlog
  bool drained = false;
  WallClock::time_point end;
};

/// Open-loop generation: message k is due at start + k/rate, at the next
/// site `origins` names; a late generator submits immediately and the
/// lateness counts toward latency. Then waits for every site to deliver
/// the rung, up to kDrainGraceS after the last due time.
Rung run_rung(Fleet& f, double rate, double secs, Origins& origins) {
  Rung r;
  r.rate = rate;
  r.lo = f.submitted();
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * secs)));
  // Overload guard: once the undelivered backlog exceeds this, the rung
  // stops offering load (it has already failed) so the fleet can drain.
  const auto backlog_limit = static_cast<std::size_t>(10 + rate * kBacklogLimitS);
  const std::vector<char> none(f.size(), 0);
  const auto start = Clock::now() + milliseconds(2);
  const auto period = duration<double>(1.0 / rate);
  Clock::time_point due = start;
  for (std::size_t k = 0; k < n; ++k) {
    due = start + duration_cast<Clock::duration>(period * static_cast<double>(k));
    std::this_thread::sleep_until(due);
    if (f.submitted() - f.min_survivor_delivered() > backlog_limit) {
      r.overloaded = true;
      break;
    }
    f.submit(origins.next(none), due);
  }
  r.hi = f.submitted();
  const auto deadline = due + duration_cast<Clock::duration>(duration<double>(kDrainGraceS));
  while (!(r.drained = f.min_survivor_delivered() >= r.hi) && Clock::now() < deadline) {
    std::this_thread::sleep_for(microseconds(500));
  }
  r.end = WallClock::now();
  return r;
}

}  // namespace

WorkloadResult run_abcast_wall(const RunOptions& ro, TraceLog& trace) {
  WorkloadResult res;
  Samples measured;
  ThreadSampler threads;
  const double S = ro.seconds;
  trace.process_name(0, "bench phases (wall clock)");

  FleetConfig cfg;
  cfg.sites = kWallSites;
  cfg.opts = wall_options(ro.seed);
  cfg.link = LinkOptions{.base_latency = kWallLink};
  cfg.net_seed = ro.seed;

  // Set-up: build the fleet and install the initial view, several times.
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const double c0 = proc_snapshot().cpu_s;
    const auto t0 = WallClock::now();
    auto f = std::make_unique<Fleet>(cfg, samoa::time::wall_clock(), ro.seed);
    f->start();
    const auto t1 = WallClock::now();
    measured.setup_s.push_back(proc_snapshot().cpu_s - c0);
    measured.setup_wall_s.push_back(seconds_between(t0, t1));
    trace_phase(trace, "setup", t0, t1);
    fleet = std::move(f);
  }

  // Single-site baseline: the stack's latency floor without a network hop.
  {
    FleetConfig one = cfg;
    one.sites = 1;
    const auto t0 = WallClock::now();
    Fleet single(one, samoa::time::wall_clock(), ro.seed);
    single.start();
    Origins only(1, ro.seed);
    const Rung r = run_rung(single, kSingleSiteRate, std::max(1.0, 0.05 * S), only);
    const auto a = single.analyze(false);
    Samples s;
    add_messages(single, a, r.lo, r.hi, s);
    res.e2e.set("bench.single_site_p50_ms", median(s.origin_ms), "ms");
    res.notes.push_back("single-site baseline: " + std::to_string(s.delivered) + "/" +
                        std::to_string(s.attempted) + " delivered, p50 " +
                        fmt(median(s.origin_ms)) + " ms");
    if (s.delivered != s.attempted || a.order_mismatches + a.duplicates > 0) {
      res.correct = false;
      res.problems.push_back("single-site baseline did not deliver every message in order");
    }
    trace_phase(trace, "single-site baseline", t0, r.end);
  }

  // The reported rung, then the ladder above it.
  Fleet& f = *fleet;
  Origins origins(kWallSites, ro.seed);
  // A rung passes when it offered its full load, every message was
  // delivered by its deadline, and the tail latency meets kP99LimitMs.
  const auto judge = [&](const Rung& r, Samples& s, bool reported) {
    const auto a = f.analyze(false);
    add_messages(f, a, r.lo, r.hi, s);
    const bool pass = !r.overloaded && r.drained && s.delivered == s.attempted &&
                      tail(s.origin_ms) <= kP99LimitMs;
    res.notes.push_back("rung " + fmt(r.rate, 0) + " msgs/s: " + std::to_string(s.delivered) +
                        "/" + std::to_string(s.attempted) + " delivered, p50 " +
                        fmt(median(s.origin_ms)) + " ms, p" +
                        fmt(100 * tail_quantile(s.origin_ms.size()), 1) + " " +
                        fmt(tail(s.origin_ms)) + " ms, all-sites tail " + fmt(tail(s.all_ms)) +
                        " ms, threads peak " + std::to_string(threads.peak()) +
                        (r.overloaded ? "  [backlog grew: stopped early]" : "") +
                        (pass ? "" : "  [misses the limit]") + (reported ? "  (reported rung)" : ""));
    if (reported) trace_messages(trace, f, a, r.lo, r.hi, wall_us(f.epoch()), true, 0);
    return pass;
  };

  const Window w = begin_window(f, threads);
  Rung last = run_rung(f, kReportedRate, 0.5 * S, origins);
  end_window(f, w, threads, measured);
  trace_phase(trace, "reported rung " + fmt(kReportedRate, 0) + " msgs/s", w.wall, last.end);
  bool climbing = judge(last, measured, true);
  double max_rate = climbing ? kReportedRate : 0;

  // The ladder: climb while every rung passes.
  std::uint64_t ladder_attempted = 0, ladder_failed = 0;
  for (double rate : kLadderRates) {
    if (!climbing) break;
    const auto t0 = WallClock::now();
    threads.reset();
    last = run_rung(f, rate, 0.1 * S, origins);
    trace_phase(trace, "ladder rung " + fmt(rate, 0) + " msgs/s", t0, last.end);
    Samples s;
    climbing = judge(last, s, false);
    if (climbing) max_rate = rate;
    ladder_attempted += s.attempted;
    ladder_failed += s.attempted - s.delivered;
  }

  // Drain and teardown; an undrained rung is halted instead of drained.
  const auto td0 = WallClock::now();
  if (!last.drained) f.halt();
  f.stop_timers();
  f.quiesce();
  const auto checks = f.analyze(true);
  fleet.reset();
  trace_phase(trace, "drain and teardown", td0, WallClock::now());

  fill_metrics(measured, res);
  res.attempted += ladder_attempted;
  res.failed += ladder_failed;
  res.e2e.set("max_rate_msgs_s", max_rate, "1/s");
  res.e2e.set("failed_frac", res.attempted ? static_cast<double>(res.failed) / res.attempted : 0.0,
              "frac");
  res.layers.set("verify.vs_violations", static_cast<double>(checks.vs_violations), "count");
  res.layers.set("verify.order_mismatches", static_cast<double>(checks.order_mismatches), "count");
  res.layers.set("verify.duplicates", static_cast<double>(checks.duplicates), "count");
  res.layers.set("chaos.crashes", 0, "count");
  res.layers.set("chaos.recoveries", 0, "count");
  res.layers.set("bench.tail_nudges", 0, "count");
  res.problems.insert(res.problems.end(), checks.problems.begin(), checks.problems.end());
  if (!checks.problems.empty()) res.correct = false;
  return res;
}

// --- virtual-time episodes ---------------------------------------------------

namespace {

/// A fleet on its own virtual clock (the clock must outlive the fleet).
struct SimFleet {
  samoa::time::VirtualClock clock;
  Fleet fleet;
  SimFleet(const FleetConfig& cfg, std::uint64_t payload_seed) : fleet(cfg, clock, payload_seed) {}
};

struct EpisodeSpec {
  FleetConfig cfg;
  std::uint64_t seed = 1;
  int messages = 10;
  milliseconds interval{10};
  bool faults = false;
};

struct EpisodeOutcome {
  bool converged = false;
  double end_ms = 0;
  double crash_ms = -1, rejoin_ms = -1, recovered_ms = -1;
  double outage_ms = -1, recovery_ms = -1;
  int victim = -1;
  int tail_nudges = 0;
  std::uint64_t event_hash = 0;
};

/// The scripted part of an episode on an already built fleet; `t0` and
/// `cpu0` are the wall clock and process CPU time when its construction
/// began (set-up ends once the initial view is installed).
/// The script's timers are declared after the state their callbacks touch,
/// so they stop before that state goes away.
void run_scripted(const EpisodeSpec& spec, SimFleet& sim, Samples& s, ThreadSampler& threads,
                  TraceLog& trace, double& trace_base_us, std::uint64_t id_base,
                  WallClock::time_point t0, double cpu0, EpisodeOutcome& out) {
  Fleet& f = sim.fleet;
  f.net().enable_event_log(/*store_lines=*/false);
  const int n = f.size();
  const auto last_due = kFirstDue + spec.interval * (spec.messages - 1);
  samoa::OneShotEvent done;
  // Generator state, touched only from scripted callbacks.
  std::vector<char> excluded(n, 0);
  Origins origins(n, spec.seed);
  bool restarted = false;
  samoa::net::TimerService script(&sim.clock);
  samoa::chaos::ChaosEngine engine(f.net(), script);

  const auto finish = [&](bool converged) {
    out.converged = converged;
    out.end_ms = f.now_ms();
    f.stop_timers();
    script.cancel_all();
    done.set();
  };
  const auto survivor = [&] {
    for (int i = 0; i < n; ++i) {
      if (i != out.victim && f.alive(i)) return i;
    }
    return 0;
  };

  Window w;
  {
    samoa::time::Pin pin(sim.clock);
    f.start();
    const auto t1 = WallClock::now();
    s.setup_s.push_back(proc_snapshot().cpu_s - cpu0);
    s.setup_wall_s.push_back(seconds_between(t0, t1));
    trace_phase(trace, "setup", t0, t1);

    const auto epoch = sim.clock.now();
    for (int k = 0; k < spec.messages; ++k) {
      const auto at = kFirstDue + spec.interval * k;
      script.schedule(at, [&, due = epoch + at] {
        // A crashed site takes no abcasts until its rejoined incarnation
        // delivers again.
        if (out.victim >= 0 && excluded[out.victim] && restarted &&
            f.first_delivery_ms(out.victim) >= 0) {
          excluded[out.victim] = 0;
        }
        f.submit(origins.next(excluded), due);
      });
    }

    if (spec.faults) {
      samoa::Rng rng(spec.seed);
      const int pa = static_cast<int>(rng.next_below(n));
      const int pb = static_cast<int>((pa + 1 + rng.next_below(n - 1)) % n);
      const auto stream = spec.interval * spec.messages;
      // Crash halfway between two due times, mid-stream.
      const auto crash_at = kFirstDue + spec.interval * (spec.messages / 2) + spec.interval / 2;
      samoa::chaos::FaultPlan plan;
      plan.partition(kFirstDue + stream * 15 / 100, f.node(pa).id(), f.node(pb).id())
          .heal(kFirstDue + stream * 30 / 100, f.node(pa).id(), f.node(pb).id())
          .call(crash_at, "crash the current instance's coordinator",
                [&] {
                  // Coordinator of the next undecided instance, attempt 0,
                  // as the lowest live site sees it.
                  samoa::gc::GroupNode& ref = f.node(survivor());
                  const auto view = ref.membership().view_snapshot();
                  const int v = f.index_of(view.member_at(ref.ab().next_instance()));
                  out.victim = v < 0 ? n - 1 : v;
                  out.crash_ms = f.now_ms();
                  excluded[out.victim] = 1;
                  f.crash(out.victim);
                })
          .call(crash_at + milliseconds(12), "evict it",
                [&] { f.node(survivor()).request_leave(f.node(out.victim).id()); })
          .call(crash_at + milliseconds(40), "restart it",
                [&] {
                  f.restart(out.victim);
                  restarted = true;
                })
          .call(crash_at + milliseconds(41), "rejoin it", [&] {
            out.rejoin_ms = f.now_ms();
            f.node(survivor()).request_join(f.node(out.victim).id());
          });
      engine.arm(plan);
    }

    const auto rejoined_caught_up = [&] {
      if (!restarted || f.delivered(out.victim) == 0) return false;
      const auto mine = f.node(out.victim).sink().adelivered();
      const auto ref = f.node(survivor()).sink().adelivered();
      return !mine.empty() && !ref.empty() && mine.back().data == ref.back().data;
    };
    auto last_nudge = epoch + last_due;
    script.schedule_periodic(milliseconds(2), [&, last_due] {
      const auto now = sim.clock.now();
      if (now - epoch < last_due || f.min_survivor_delivered() < f.submitted()) return;
      if (!spec.faults || rejoined_caught_up()) {
        finish(true);
        return;
      }
      // Only the rejoined site is behind. A rejoined incarnation proposes
      // only its own messages and pulls a decision only once a later one
      // is decided, so if it lost the DECIDE of the stream's last instance
      // nothing heals it. The next message from it does, as an
      // application's would: submit one, counted, when it stays stuck.
      if (restarted && now - last_nudge >= kNudgeAfter) {
        last_nudge = now;
        ++out.tail_nudges;
        f.submit(out.victim, now);
      }
    });
    script.schedule(last_due + kHorizonSlack, [&] { finish(false); });
    w = begin_window(f, threads);
  }

  done.wait();
  f.quiesce();
  end_window(f, w, threads, s);
  const auto measured_end = WallClock::now();
  trace_phase(trace, spec.faults ? "fault episode (virtual)" : "fleet run (virtual)", w.wall,
              measured_end);

  const auto a = f.analyze(true);
  add_messages(f, a, 0, f.submitted(), s);
  add_checks(a, s);
  if (!out.converged) s.problems.push_back("episode did not converge before its horizon");
  out.event_hash = f.net().event_hash();

  if (spec.faults && out.victim >= 0) {
    out.recovered_ms = f.first_delivery_ms(out.victim);
    if (out.recovered_ms >= 0 && out.rejoin_ms >= 0) out.recovery_ms = out.recovered_ms - out.rejoin_ms;
    // Longest gap without an adelivery at any survivor, from the last
    // delivery before the crash up to the rejoined site's first delivery.
    const auto& t = a.survivor_stamps;
    const double until = out.recovered_ms >= 0 ? out.recovered_ms : out.end_ms;
    double prev = 0;
    for (double x : t) {
      if (x > out.crash_ms && prev < until) out.outage_ms = std::max(out.outage_ms, x - prev);
      prev = x;
    }
    if (t.empty() || t.back() <= out.crash_ms) out.outage_ms = out.end_ms - prev;
  }

  trace_messages(trace, f, a, 0, f.submitted(), trace_base_us, false, id_base);
  if (trace.enabled() && spec.faults) {
    trace.instant("crash site " + std::to_string(out.victim), "chaos", kScenarioPid, 2,
                  trace_base_us + out.crash_ms * 1e3);
    trace.instant("rejoin requested", "chaos", kScenarioPid, 2,
                  trace_base_us + out.rejoin_ms * 1e3);
  }
  trace_base_us += out.end_ms * 1e3 + 1e4;
}

/// Runs one scripted episode on virtual time. Every scripted callback makes
/// exactly one node API call, and virtual time serializes it against all
/// computations, so the episode is a pure function of its spec.
EpisodeOutcome run_episode(const EpisodeSpec& spec, Samples& s, ThreadSampler& threads,
                           TraceLog& trace, double& trace_base_us, std::uint64_t id_base) {
  EpisodeOutcome out;
  WallClock::time_point teardown_start;
  {
    const double cpu0 = proc_snapshot().cpu_s;
    const auto t0 = WallClock::now();
    SimFleet sim(spec.cfg, spec.seed);
    run_scripted(spec, sim, s, threads, trace, trace_base_us, id_base, t0, cpu0, out);
    teardown_start = WallClock::now();
  }
  trace_phase(trace, "teardown", teardown_start, WallClock::now());
  return out;
}

GcOptions virtual_options(std::uint64_t seed) {
  GcOptions opts;
  opts.rng_seed = seed;
  opts.retransmit_interval = microseconds(2000);
  opts.retransmit_timeout = microseconds(3000);
  opts.retransmit_backoff_cap = microseconds(12000);
  opts.cs_retry_interval = microseconds(5000);
  opts.cs_retry_timeout = microseconds(8000);
  return opts;
}

}  // namespace

WorkloadResult run_fleet_virtual(const RunOptions& ro, TraceLog& trace) {
  const int cpus = pin_to_first_cpus(kVirtualCpus);
  WorkloadResult res;
  Samples s;
  ThreadSampler threads;
  trace.process_name(0, "bench phases (wall clock)");

  EpisodeSpec spec;
  spec.cfg.sites = kFleetSites;
  spec.cfg.opts = virtual_options(ro.seed);
  spec.cfg.opts.detector_impl = DetectorImpl::kSwim;
  spec.cfg.opts.swim_probe_interval = microseconds(2000);
  spec.cfg.opts.swim_ack_timeout = microseconds(600);
  spec.cfg.link = LinkOptions{.base_latency = microseconds(100),
                              .jitter = microseconds(200),
                              .drop_probability = 0.005};
  spec.cfg.net_seed = ro.seed;
  spec.seed = ro.seed;
  spec.messages = std::max(10, static_cast<int>(std::lround(ro.seconds * kFleetMsgsPerSecond)));
  spec.interval = kFleetInterval;

  // Extra set-up samples: build, install the view, tear down.
  for (int rep = 0; rep + 1 < kFleetSetupReps; ++rep) {
    const double c0 = proc_snapshot().cpu_s;
    const auto t0 = WallClock::now();
    SimFleet sim(spec.cfg, spec.seed);
    {
      samoa::time::Pin pin(sim.clock);
      sim.fleet.start();
      sim.fleet.stop_timers();
    }
    const auto t1 = WallClock::now();
    s.setup_s.push_back(proc_snapshot().cpu_s - c0);
    s.setup_wall_s.push_back(seconds_between(t0, t1));
    trace_phase(trace, "setup", t0, t1);
  }

  double base_us = 0;
  const auto td = WallClock::now();
  const EpisodeOutcome out = run_episode(spec, s, threads, trace, base_us, 0);
  fill_metrics(s, res);
  res.event_hash = out.event_hash;
  res.layers.set("chaos.crashes", 0, "count");
  res.layers.set("chaos.recoveries", 0, "count");
  res.layers.set("bench.tail_nudges", 0, "count");
  res.notes.push_back("pinned to " + std::to_string(cpus) + " CPUs");
  res.notes.push_back(std::to_string(kFleetSites) + " sites, " + std::to_string(spec.messages) +
                      " abcasts over " + fmt(out.end_ms, 1) + " virtual ms in " +
                      fmt(seconds_between(td, WallClock::now()), 2) + " wall s; event hash " +
                      std::to_string(out.event_hash));
  return res;
}

WorkloadResult run_faults_virtual(const RunOptions& ro, TraceLog& trace) {
  const int cpus = pin_to_first_cpus(kVirtualCpus);
  WorkloadResult res;
  Samples s;
  ThreadSampler threads;
  trace.process_name(0, "bench phases (wall clock)");
  res.notes.push_back("pinned to " + std::to_string(cpus) + " CPUs");

  const int episodes =
      std::max(3, static_cast<int>(std::lround(ro.seconds * kFaultEpisodesPerSecond)));
  std::vector<double> outages, recoveries;
  std::uint64_t hash = 1469598103934665603ull;
  double crashes = 0, recoveries_net = 0, nudges = 0;
  double base_us = 0;
  for (int e = 0; e < episodes; ++e) {
    EpisodeSpec spec;
    spec.seed = mix(ro.seed, static_cast<std::uint64_t>(e));
    spec.cfg.sites = kFaultSites;
    spec.cfg.opts = virtual_options(spec.seed);
    spec.cfg.opts.heartbeat_interval = microseconds(2000);
    spec.cfg.opts.fd_timeout = microseconds(4000);
    spec.cfg.link = LinkOptions{.base_latency = microseconds(100),
                                .jitter = microseconds(200),
                                .drop_probability = 0.05};
    spec.cfg.net_seed = spec.seed;
    spec.messages = kFaultMsgs;
    spec.interval = kFaultInterval;
    spec.faults = true;
    const EpisodeOutcome out =
        run_episode(spec, s, threads, trace, base_us, static_cast<std::uint64_t>(e) * 1'000'000);
    hash = (hash ^ out.event_hash) * 1099511628211ull;
    if (out.outage_ms >= 0) outages.push_back(out.outage_ms);
    if (out.recovery_ms >= 0) recoveries.push_back(out.recovery_ms);
    if (out.victim >= 0) crashes += 1;
    if (out.recovered_ms >= 0) recoveries_net += 1;
    nudges += out.tail_nudges;
    if (out.recovery_ms < 0) {
      s.problems.push_back("episode " + std::to_string(e) + ": the rejoined site never delivered");
    }
    res.notes.push_back("episode " + std::to_string(e) + ": crashed site " +
                        std::to_string(out.victim) + " at " + fmt(out.crash_ms, 1) +
                        " ms, outage " + fmt(out.outage_ms, 3) + " ms, recovery " +
                        fmt(out.recovery_ms, 3) + " ms, end " + fmt(out.end_ms, 1) + " ms");
  }
  fill_metrics(s, res);
  res.event_hash = hash;
  res.e2e.set("outage_ms", median(outages), "ms");
  res.e2e.set("recovery_ms", median(recoveries), "ms");
  res.layers.set("chaos.crashes", crashes, "count");
  res.layers.set("chaos.recoveries", recoveries_net, "count");
  res.layers.set("bench.tail_nudges", nudges, "count");
  return res;
}

bool run_workload(const RunOptions& ro, TraceLog& trace, WorkloadResult& out) {
  if (ro.workload == "abcast_wall") {
    out = run_abcast_wall(ro, trace);
  } else if (ro.workload == "fleet_virtual") {
    out = run_fleet_virtual(ro, trace);
  } else if (ro.workload == "faults_virtual") {
    out = run_faults_virtual(ro, trace);
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> virtual_metric_names() {
  return {"adeliver_p50_ms",     "adeliver_p99_ms",   "adeliver_all_p99_ms",
          "adeliver_samples",    "packets_per_msg",   "failed_frac",
          "outage_ms",           "recovery_ms",       "net.sent",
          "net.delivered",       "net.dropped",       "gc.cs.instances",
          "gc.cs.rounds_per_instance", "gc.cs.decision_pulls",
          "gc.rc.retransmissions_per_msg", "gc.fd.suspicions", "gc.rejoins",
          "gc.deliver_spread_ms_p50", "bench.tail_nudges"};
}

}  // namespace perfbench
