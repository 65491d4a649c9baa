// StepHook — the runtime's runnable-step seam for schedule exploration.
//
// The schedule-exploration subsystem (src/explore/) needs to know, at every
// point where the runtime could hand the CPU to a different computation,
// *which* steps are runnable and to pick the one that goes next. Rather
// than have core/ depend on explore/, the runtime exposes this minimal
// hook interface; explore::ScheduleController implements it as a
// cooperative token scheduler (exactly one hooked task runs between
// scheduling points; every choice is recorded for bit-exact replay).
//
// Call protocol, maintained by Runtime / Context / Computation:
//
//   on_task_submitted(c)   a task of computation c is about to be queued
//                          on the pool. Called on the submitting thread —
//                          either a thread that currently holds the token
//                          or the driver while the scheduler is paused —
//                          so the set of expected arrivals is always
//                          updated race-free with respect to decisions.
//                          Returns a ticket naming the task; submission
//                          order is deterministic, so the ticket is the
//                          task's schedule-stable identity (pool threads
//                          may *start* tasks in any OS order).
//   on_task_started(c, t)  first statement of the task body, on the pool
//                          thread, passing the ticket minted at
//                          submission. Blocks until the scheduler grants
//                          the task its first turn.
//   step_point(c, what)    a voluntary scheduling point: releases the
//                          token, lets the scheduler pick any runnable
//                          task (possibly this one again), blocks until
//                          re-granted.
//   resync(c)              called with no locks held immediately after a
//                          runtime call that may have blocked on a
//                          controller wait (version gate, serial turn,
//                          TSO claim). If the wait parked — releasing the
//                          token via the diag::WaitRegistry observer —
//                          this blocks until the token is re-granted;
//                          otherwise it is a no-op.
//   on_task_finished(c)    last statement of the task body; releases the
//                          token for good.
//
// A null hook (the default) costs one pointer test per call site.
//
// Dispatch interaction: a runtime with a hook runs its tasks on its
// elastic pool, even under a virtual clock (it never runs inline). The
// controller's token barrier treats every submitted task as independently
// startable, which the pool provides: each task gets a thread of its own
// and then waits at on_task_started for its turn.
#pragma once

#include <cstdint>

#include "util/ids.hpp"

namespace samoa {

class StepHook {
 public:
  virtual ~StepHook() = default;

  virtual std::uint64_t on_task_submitted(ComputationId id) = 0;
  virtual void on_task_started(ComputationId id, std::uint64_t ticket) = 0;
  virtual void on_task_finished(ComputationId id) = 0;
  virtual void step_point(ComputationId id, const char* what) = 0;
  virtual void resync(ComputationId id) = 0;
};

}  // namespace samoa
