#include "explore/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "explore/schedule_controller.hpp"
#include "explore/shrink.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"

namespace samoa::explore {

namespace {

/// Workload microprotocol: the handler yields the interleaving token in
/// the middle of its critical section, so a controller that fails to gate
/// the microprotocol lets another computation's handler start in between —
/// which the trace shows as overlapping intervals (checker rule 1).
/// Counters are atomic only to keep kUnsync runs UB-free under TSan; the
/// oracle is the trace, not the counters.
class YieldMp : public Microprotocol {
 public:
  explicit YieldMp(std::string name) : Microprotocol(std::move(name)) {
    handler = &register_handler("run", [this](Context& ctx, const Message&) {
      entered.fetch_add(1, std::memory_order_relaxed);
      ctx.yield_point("mid");
      left.fetch_add(1, std::memory_order_relaxed);
    });
  }

  const Handler* handler = nullptr;
  std::atomic<int> entered{0};
  std::atomic<int> left{0};
};

struct Workload {
  Stack stack;
  std::vector<YieldMp*> mps;
  std::vector<EventType> events;          // events[i] triggers mps[i]
  std::vector<std::vector<int>> plans;    // per computation: mp indices, in call order
};

/// Build the cell workload. Everything here is a pure function of the cell
/// seed — identical across every schedule of the cell, which is what makes
/// (seed, trace) a complete replay key.
void build_workload(const CellOptions& opts, Workload& w) {
  const int mps = std::max(opts.mps, 1);
  const int comps = std::max(opts.comps, 1);
  const int calls = std::max(opts.calls, 1);
  w.mps.reserve(static_cast<std::size_t>(mps));
  w.events.reserve(static_cast<std::size_t>(mps));
  for (int i = 0; i < mps; ++i) {
    w.mps.push_back(&w.stack.emplace<YieldMp>("mp" + std::to_string(i)));
    w.events.emplace_back("ev" + std::to_string(i));
    w.stack.bind(w.events.back(), *w.mps.back()->handler);
  }
  Rng rng(opts.seed);
  w.plans.resize(static_cast<std::size_t>(comps));
  for (auto& plan : w.plans) {
    plan.reserve(static_cast<std::size_t>(calls));
    // First call always hits mp0: a guaranteed shared hotspot, so every
    // pair of computations conflicts and a bad interleaving exists to find.
    plan.push_back(0);
    for (int c = 1; c < calls; ++c) {
      plan.push_back(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(mps))));
    }
  }
}

Isolation make_isolation(const CellOptions& opts, const Workload& w, const std::vector<int>& plan) {
  std::vector<int> distinct;  // first-occurrence order
  for (int idx : plan) {
    if (std::find(distinct.begin(), distinct.end(), idx) == distinct.end()) distinct.push_back(idx);
  }
  switch (opts.policy) {
    case CCPolicy::kVCABound: {
      std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds;
      for (int idx : distinct) {
        const auto count = static_cast<std::uint32_t>(std::count(plan.begin(), plan.end(), idx));
        bounds.emplace_back(w.mps[static_cast<std::size_t>(idx)], count);
      }
      return Isolation::bound(std::move(bounds));
    }
    case CCPolicy::kVCARoute: {
      RouteSpec spec;
      for (int idx : distinct) spec.entry(*w.mps[static_cast<std::size_t>(idx)]->handler);
      return Isolation::route(std::move(spec));
    }
    case CCPolicy::kVCARW: {
      std::vector<std::pair<const Microprotocol*, Access>> accesses;
      for (int idx : distinct) {
        accesses.emplace_back(w.mps[static_cast<std::size_t>(idx)], Access::kWrite);
      }
      return Isolation::read_write(std::move(accesses));
    }
    default: {
      std::vector<const Microprotocol*> members;
      for (int idx : distinct) members.push_back(w.mps[static_cast<std::size_t>(idx)]);
      return Isolation::basic(std::move(members));
    }
  }
}

const char* policy_enum_name(CCPolicy policy) {
  switch (policy) {
    case CCPolicy::kSerial:
      return "kSerial";
    case CCPolicy::kUnsync:
      return "kUnsync";
    case CCPolicy::kVCABasic:
      return "kVCABasic";
    case CCPolicy::kVCABound:
      return "kVCABound";
    case CCPolicy::kVCARoute:
      return "kVCARoute";
    case CCPolicy::kVCARW:
      return "kVCARW";
    case CCPolicy::kTSO:
      return "kTSO";
  }
  return "kVCABasic";
}

const char* strategy_enum_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFirst:
      return "kFirst";
    case StrategyKind::kRandomWalk:
      return "kRandomWalk";
    case StrategyKind::kPct:
      return "kPct";
    case StrategyKind::kExhaustive:
      return "kExhaustive";
  }
  return "kRandomWalk";
}

/// Per-run strategy seed: decorrelated from the workload seed (which feeds
/// the plans) and from neighbouring runs.
std::uint64_t run_seed(std::uint64_t cell_seed, std::size_t run_index) {
  SplitMix64 mix(cell_seed ^ (0x9E3779B97F4A7C15ULL * (run_index + 1)));
  return mix.next();
}

std::unique_ptr<Strategy> make_fresh_strategy(const CellOptions& opts, std::size_t run_index) {
  switch (opts.strategy) {
    case StrategyKind::kFirst:
      return std::make_unique<FirstStrategy>();
    case StrategyKind::kPct:
      return std::make_unique<PctStrategy>(run_seed(opts.seed, run_index), opts.pct_k);
    default:
      return std::make_unique<RandomWalkStrategy>(run_seed(opts.seed, run_index));
  }
}

/// Standalone snippet a human can paste into a test body to re-execute the
/// shrunk schedule.
std::string make_repro(const CellOptions& o, const ScheduleTrace& trace) {
  std::ostringstream out;
  out << "// Repro: replays the shrunk violating schedule bit-for-bit.\n"
      << "samoa::explore::CellOptions o;\n"
      << "o.policy = samoa::CCPolicy::" << policy_enum_name(o.policy) << ";\n"
      << "o.strategy = samoa::explore::StrategyKind::" << strategy_enum_name(o.strategy) << ";\n"
      << "o.seed = " << o.seed << "ULL;\n"
      << "o.comps = " << o.comps << ";\n"
      << "o.mps = " << o.mps << ";\n"
      << "o.calls = " << o.calls << ";\n"
      << "auto r = samoa::explore::replay_schedule(\n"
      << "    o, samoa::explore::ScheduleTrace::decode(\"" << trace.encode() << "\"));\n"
      << "ASSERT_FALSE(r.replay_diverged);\n"
      << "ASSERT_TRUE(r.violated);\n";
  return out.str();
}

void dump_if_requested(const CellResult& res) {
  const char* dir = std::getenv("SAMOA_EXPLORE_DUMP_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::ofstream out(std::string(dir) + "/" + res.cell_name() + ".trace");
  if (!out) return;
  out << "cell: " << res.cell_name() << "\n"
      << "schedules_run: " << res.schedules_run << "\n"
      << "first_violation: " << res.first_violation.encode() << "\n"
      << "shrunk: " << res.shrunk.encode() << "\n"
      << res.violation_summary << "\n\n"
      << res.repro;
}

}  // namespace

void DecisionCounts::add(const ScheduleTrace& trace) {
  for (const Decision& d : trace.decisions()) {
    switch (d.kind) {
      case 's':
        ++s;
        break;
      case 'c':
        ++c;
        break;
      case 'n':
        ++n;
        break;
      default:
        break;
    }
  }
}

std::string DecisionCounts::summary() const {
  std::ostringstream out;
  out << "s=" << s << " c=" << c << " n=" << n;
  return out.str();
}

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFirst:
      return "first";
    case StrategyKind::kRandomWalk:
      return "random-walk";
    case StrategyKind::kPct:
      return "pct";
    case StrategyKind::kExhaustive:
      return "exhaustive";
  }
  return "?";
}

std::string CellResult::cell_name() const {
  std::ostringstream out;
  out << to_string(options.policy) << "_" << to_string(options.strategy) << "_seed"
      << options.seed;
  return out.str();
}

std::size_t schedule_budget(std::size_t base) {
  const char* env = std::getenv("SAMOA_EXPLORE_SCHEDULES");
  if (env == nullptr || *env == '\0') return base;
  char* end = nullptr;
  const unsigned long long mult = std::strtoull(env, &end, 10);
  if (end == env || mult == 0) return base;
  return base * static_cast<std::size_t>(std::min<unsigned long long>(mult, 10000));
}

std::string canonical_log(const std::vector<TraceEvent>& events) {
  std::unordered_map<std::uint32_t, std::size_t> mp_ix;
  std::unordered_map<std::uint32_t, std::size_t> h_ix;
  auto dense = [](std::unordered_map<std::uint32_t, std::size_t>& map, std::uint32_t raw) {
    return map.emplace(raw, map.size()).first->second;
  };
  std::ostringstream out;
  for (const TraceEvent& e : events) {
    out << e.seq << ':' << to_string(e.phase) << ":k" << e.computation.value() << ":m"
        << dense(mp_ix, e.microprotocol.value()) << ":h" << dense(h_ix, e.handler.value());
    if (e.read_only) out << ":ro";
    out << '\n';
  }
  return out.str();
}

RunResult run_schedule(const CellOptions& opts, Strategy& strategy) {
  Workload w;
  build_workload(opts, w);

  ScheduleController sched(strategy);
  RuntimeOptions ro;
  ro.policy = opts.policy;
  ro.record_trace = true;
  ro.step_hook = &sched;
  Runtime rt(w.stack, ro);

  sched.pause();
  std::vector<ComputationHandle> handles;
  handles.reserve(w.plans.size());
  for (const auto& plan : w.plans) {
    handles.push_back(rt.spawn_isolated(make_isolation(opts, w, plan), [&w, plan](Context& ctx) {
      for (int idx : plan) ctx.trigger(w.events[static_cast<std::size_t>(idx)]);
    }));
  }
  sched.resume();
  rt.drain();

  RunResult r;
  r.events = rt.trace()->snapshot();
  r.executed = sched.trace();
  r.steps = sched.steps();
  IsolationReport report = check_isolation(r.events);
  r.violated = !report.isolated;
  if (r.violated) r.violation_summary = report.summary();
  return r;
}

RunResult replay_schedule(const CellOptions& opts, const ScheduleTrace& trace) {
  ReplayStrategy strategy(trace);
  RunResult r = run_schedule(opts, strategy);
  r.replay_diverged = strategy.diverged();
  return r;
}

CellResult explore_cell(const CellOptions& opts) {
  CellResult res;
  res.options = opts;
  const std::size_t budget = schedule_budget(opts.max_schedules);

  auto note_run = [&](const RunResult& r) {
    ++res.schedules_run;
    res.decision_points += r.executed.size();
    res.decisions.add(r.executed);
  };

  auto on_violation = [&](const RunResult& r) {
    res.violation_found = true;
    res.first_violation = r.executed;
    res.violation_summary = r.violation_summary;
    ShrinkRunFn rerun = [&](const ScheduleTrace& forced) {
      RunResult rr = replay_schedule(opts, forced);
      note_run(rr);
      return ShrinkOutcome{rr.violated, rr.executed};
    };
    res.shrunk = shrink_trace(r.executed, rerun, opts.shrink_budget);
    res.repro = make_repro(opts, res.shrunk);
    dump_if_requested(res);
  };

  if (opts.strategy == StrategyKind::kExhaustive) {
    ExhaustiveStrategy strategy(opts.exhaustive_depth);
    for (std::size_t i = 0; i < budget; ++i) {
      RunResult r = run_schedule(opts, strategy);
      note_run(r);
      if (r.violated) {
        on_violation(r);
        break;
      }
      if (!strategy.advance(r.executed)) break;  // space exhausted to depth
    }
  } else {
    for (std::size_t i = 0; i < budget; ++i) {
      std::unique_ptr<Strategy> strategy = make_fresh_strategy(opts, i);
      RunResult r = run_schedule(opts, *strategy);
      note_run(r);
      if (r.violated) {
        on_violation(r);
        break;
      }
      if (opts.strategy == StrategyKind::kFirst) break;  // deterministic: one run says it all
    }
  }
  return res;
}

std::vector<CellResult> sweep(const std::vector<CCPolicy>& policies,
                              const std::vector<StrategyKind>& strategies,
                              const std::vector<std::uint64_t>& seeds, const CellOptions& base) {
  std::vector<CellResult> results;
  results.reserve(policies.size() * strategies.size() * seeds.size());
  for (CCPolicy policy : policies) {
    for (StrategyKind strategy : strategies) {
      for (std::uint64_t seed : seeds) {
        CellOptions opts = base;
        opts.policy = policy;
        opts.strategy = strategy;
        opts.seed = seed;
        results.push_back(explore_cell(opts));
      }
    }
  }
  return results;
}

}  // namespace samoa::explore
