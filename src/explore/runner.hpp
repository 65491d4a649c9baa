// ExploreRunner — strategy x seed sweeps of schedule exploration cells.
//
// A *cell* is a fully-seeded conflict workload (a stack of yield-pointed
// microprotocols, `comps` computations each triggering a seeded plan of
// handlers) run under one controller policy and one exploration strategy.
// Every schedule's TraceEvent log is fed through check_isolation; a
// violation stops the cell, gets shrunk by delta debugging, and is
// reported with the executed decision trace plus a standalone repro
// snippet. This is the sanity gate from the issue: within a bounded number
// of schedules the explorer must flag kUnsync as non-isolated on the
// conflicting workload, while kSerial, the VCA family and kTSO stay clean.
//
// Environment knobs (CI):
//   SAMOA_EXPLORE_SCHEDULES   integer multiplier on every cell's schedule
//                             budget (nightly sweeps run longer than tier-1)
//   SAMOA_EXPLORE_DUMP_DIR    if set, violating cells write their shrunk
//                             trace + repro to <dir>/<cell>.trace
#pragma once

#include <cstdint>
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

struct CellOptions {
  CCPolicy policy = CCPolicy::kVCABasic;
  StrategyKind strategy = StrategyKind::kRandomWalk;
  std::uint64_t seed = 1;
  /// Workload shape: `comps` computations, each issuing `calls` triggers
  /// drawn (seeded) from a stack of `mps` microprotocols.
  int comps = 4;
  int mps = 3;
  int calls = 3;
  std::size_t max_schedules = 64;
  std::size_t pct_k = 3;
  std::size_t exhaustive_depth = 8;
  std::size_t shrink_budget = 150;
};

/// One schedule of a cell.
struct RunResult {
  bool violated = false;
  ScheduleTrace executed;
  std::uint64_t steps = 0;  // scheduling points incl. single-candidate ones
  std::vector<TraceEvent> events;
  std::string violation_summary;
  bool replay_diverged = false;  // replay_schedule only
};

/// Recorded decisions per kind ('s' step / 'c' clock / 'n' network) across
/// a cell's schedules. Surfaced in sweep summaries so budget exhaustion on
/// network-heavy cells is diagnosable: a cell whose budget went mostly to
/// 'n' decisions explored little of the step space, and vice versa.
struct DecisionCounts {
  std::uint64_t s = 0;
  std::uint64_t c = 0;
  std::uint64_t n = 0;

  std::uint64_t total() const { return s + c + n; }
  void add(const ScheduleTrace& trace);
  std::string summary() const;  // "s=120 c=14 n=0"
};

struct CellResult {
  CellOptions options;
  std::size_t schedules_run = 0;
  std::uint64_t decision_points = 0;  // recorded decisions across all schedules
  DecisionCounts decisions;           // the same decisions, split by kind
  bool violation_found = false;
  ScheduleTrace first_violation;  // executed trace of the first violating run
  ScheduleTrace shrunk;           // delta-debugged minimum (still violating)
  std::string violation_summary;
  std::string repro;  // standalone snippet reproducing the shrunk schedule

  std::string cell_name() const;
};

/// Execute the cell workload once under `strategy`.
RunResult run_schedule(const CellOptions& opts, Strategy& strategy);

/// Replay a recorded (cell, trace) pair — same workload seed, decisions
/// forced from `trace`. With an unchanged cell the replay is bit-for-bit:
/// identical TraceEvent log, replay_diverged == false.
RunResult replay_schedule(const CellOptions& opts, const ScheduleTrace& trace);

/// Run up to max_schedules schedules (times SAMOA_EXPLORE_SCHEDULES);
/// stop at the first violation, shrink it, build the repro.
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
