// ExploreRunner — the shared explorer, and the step cells.
//
// The explorer (explore_cell with an ExploreTarget) runs any cell: a run
// function that executes one schedule under a strategy and judges it
// against the cell's predicate. The explorer owns the budget loop, strategy
// construction, shrinking, the repro snippet and the dump; a cell owns
// only its workload and oracle. Step cells live here; the whole-fleet
// network cells are built beside their scenarios
// (tests/virtual_fleet.hpp).
//
// A *step cell* is a fully-seeded conflict workload (a stack of
// yield-pointed microprotocols, `comps` computations each triggering a
// seeded plan of handlers) run under one controller policy and one
// exploration strategy. Every schedule's TraceEvent log is fed through
// check_isolation; a violation stops the cell, gets shrunk by delta
// debugging, and is reported with the executed decision trace plus a
// standalone repro snippet. This is the sanity gate: within a bounded
// number of schedules the explorer must flag kUnsync as non-isolated on
// the conflicting workload, while kSerial, the VCA family and kTSO stay
// clean.
//
// Environment knobs (CI):
//   SAMOA_EXPLORE_SCHEDULES   integer multiplier on every cell's schedule
//                             budget (nightly sweeps run longer than tier-1)
//   SAMOA_EXPLORE_DUMP_DIR    if set, violating cells write their shrunk
//                             trace + repro to <dir>/<cell>.trace
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cc/controller.hpp"
#include "core/runtime.hpp"
#include "core/trace.hpp"
#include "explore/strategy.hpp"
#include "explore/trace.hpp"

namespace samoa::explore {

enum class StrategyKind { kFirst, kRandomWalk, kPct, kExhaustive };

const char* to_string(StrategyKind kind);

/// Every cell's exploration settings (strategy, seed, budgets) plus the step
/// cell's workload shape. The explorer seeds each schedule's strategy from
/// `seed`; a step cell also builds its workload from it.
struct CellOptions {
  CCPolicy policy = CCPolicy::kVCABasic;
  StrategyKind strategy = StrategyKind::kRandomWalk;
  std::uint64_t seed = 1;
  /// Step-cell workload shape: `comps` computations, each issuing `calls`
  /// triggers drawn (seeded) from a stack of `mps` microprotocols.
  int comps = 4;
  int mps = 3;
  int calls = 3;
  std::size_t max_schedules = 64;
  std::size_t pct_k = 3;
  std::size_t exhaustive_depth = 8;
  std::size_t shrink_budget = 150;
};

/// One schedule of a step cell.
struct RunResult {
  bool violated = false;
  ScheduleTrace executed;
  std::uint64_t steps = 0;  // scheduling points incl. single-candidate ones
  std::vector<TraceEvent> events;
  std::string violation_summary;
  bool replay_diverged = false;  // replay_schedule only
};

/// Recorded decisions per kind ('s' step / 'n' network) across a cell's
/// schedules. Surfaced in sweep summaries: step cells record only 's'
/// decisions and fleet cells only 'n' ones.
struct DecisionCounts {
  std::uint64_t s = 0;
  std::uint64_t n = 0;

  std::uint64_t total() const { return s + n; }
  void add(const ScheduleTrace& trace);
  std::string summary() const;  // "s=120 n=0"
};

/// One schedule as the explorer judges it.
struct Verdict {
  bool violated = false;  // the cell's predicate held
  ScheduleTrace executed;
  std::string summary;  // why, when violated
};

/// A cell the explorer can run. `run` executes one schedule under the
/// given strategy and judges it; `repro` renders a standalone snippet that
/// replays `trace` and re-checks the predicate.
struct ExploreTarget {
  std::string name;
  std::function<Verdict(Strategy&)> run;
  std::function<std::string(const ScheduleTrace&)> repro;
};

struct CellResult {
  std::string name;
  CellOptions options;
  std::size_t schedules_run = 0;
  std::uint64_t decision_points = 0;  // recorded decisions across all schedules
  DecisionCounts decisions;           // the same decisions, split by kind
  bool violation_found = false;
  std::size_t first_violation_at = 0;  // 1-based schedule index; 0 when none
  ScheduleTrace first_violation;       // executed trace of the first violating run
  ScheduleTrace shrunk;           // delta-debugged minimum (still violating)
  std::string violation_summary;
  std::string repro;  // standalone snippet reproducing the shrunk schedule
};

/// The explorer: run up to opts.max_schedules schedules (times
/// SAMOA_EXPLORE_SCHEDULES) of `target` under opts.strategy, each seeded
/// from opts.seed; stop at the first violation, shrink it (every candidate
/// replayed through `target.run`), build the repro, dump it.
CellResult explore_cell(const CellOptions& opts, const ExploreTarget& target);

/// Execute the step-cell workload once under `strategy`.
RunResult run_schedule(const CellOptions& opts, Strategy& strategy);

/// Replay a recorded (cell, trace) pair — same workload seed, decisions
/// forced from `trace`. With an unchanged cell the replay is bit-for-bit:
/// identical TraceEvent log, replay_diverged == false.
RunResult replay_schedule(const CellOptions& opts, const ScheduleTrace& trace);

/// The step cell of `opts`, explored.
CellResult explore_cell(const CellOptions& opts);

/// explore_cell over the cross product, one CellResult per cell.
std::vector<CellResult> sweep(const std::vector<CCPolicy>& policies,
                              const std::vector<StrategyKind>& strategies,
                              const std::vector<std::uint64_t>& seeds,
                              const CellOptions& base);

/// `base` scaled by the SAMOA_EXPLORE_SCHEDULES multiplier (default 1).
std::size_t schedule_budget(std::size_t base);

/// Canonical rendering of a TraceEvent log: MicroprotocolId/HandlerId are
/// process-global allocations, so two runs of the same cell carry
/// different raw ids even when they executed the same schedule. This remaps
/// both to dense first-appearance indices (ComputationId is already
/// per-runtime); two runs took the same schedule iff their canonical logs
/// are equal.
std::string canonical_log(const std::vector<TraceEvent>& events);

}  // namespace samoa::explore
