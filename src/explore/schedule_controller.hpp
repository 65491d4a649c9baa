// ScheduleController — cooperative token scheduler for interleaving
// exploration (CHESS-style sequentialisation).
//
// One controller drives one Runtime (wired in via RuntimeOptions::
// step_hook). It serialises every computation task behind a single token:
// at most one hooked task executes between scheduling points, and at each
// point where >= 2 tasks are runnable the installed Strategy picks which
// one goes — every such choice lands in a ScheduleTrace, making the run
// replayable bit-for-bit from (workload seed, trace).
//
// Scheduling points (see core/step_hook.hpp for the runtime's side):
// task start, task finish, Context::yield_point, the step point before
// each handler's gate, and — crucially — every controller park/unpark,
// observed through diag::WaitObserver. A task that parks in a version
// gate (the serial controller's turn included) or a TSO claim releases
// the token while blocked; the publish that wakes it is reported by the
// controller wake paths (note_wakeup_delivered), and the scheduler defers
// its next decision until every delivered wakeup has been consumed (the
// woken thread re-entered the runnable set). Without that barrier the
// runnable set at a decision point would depend on OS thread timing and
// replays would diverge.
//
// Task identity: tasks are named by their submission ticket — submissions
// happen on token-holding threads (or under pause()), so ticket order is
// schedule-determined even though the pool may *start* tasks in any OS
// order. Candidates are presented to the Strategy sorted by ticket.
//
// Driver protocol:
//
//     ScheduleController sched(strategy);
//     Runtime rt(stack, {.policy = ..., .record_trace = true,
//                        .step_hook = &sched});
//     sched.pause();                  // hold decisions while spawning
//     ... rt.spawn_isolated(...) ...  // any number
//     sched.resume();
//     rt.drain();
//     sched.trace()                   // the executed decision string
//
// Constraints: one exploring runtime at a time per process (the
// controller installs itself as the global WaitObserver, and computation
// ids are only unique per runtime); every wake that unblocks a managed
// task must come from another managed task (a driver that publishes
// externally must bracket it with pause()/resume()). If all live tasks
// are blocked and nothing can wake them, the run has found a genuine
// protocol deadlock: the controller prints the decision trace plus the
// blocked-state dump and aborts — under the deadlock-free policies this
// fires only on a real bug.
//
// Lock order: the scheduler mutex is a leaf. Observer calls arrive with a
// gate/controller/subject mutex held and take only the scheduler mutex;
// the controller never calls out while holding it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/step_hook.hpp"
#include "diag/wait_registry.hpp"
#include "explore/strategy.hpp"
#include "explore/trace.hpp"

namespace samoa::explore {

class ScheduleController final : public StepHook, public diag::WaitObserver {
 public:
  explicit ScheduleController(Strategy& strategy);
  ~ScheduleController() override;

  ScheduleController(const ScheduleController&) = delete;
  ScheduleController& operator=(const ScheduleController&) = delete;

  /// Hold all scheduling decisions (driver spawns deterministically while
  /// paused). resume() releases the machine.
  void pause();
  void resume();

  /// The decisions executed so far. Read only after drain().
  const ScheduleTrace& trace() const { return trace_; }

  /// Total scheduling points passed (including single-candidate ones).
  std::uint64_t steps() const;

  // --- StepHook ---
  std::uint64_t on_task_submitted(ComputationId id) override;
  void on_task_started(ComputationId id, std::uint64_t ticket) override;
  void on_task_finished(ComputationId id) override;
  void step_point(ComputationId id, const char* what) override;
  void resync(ComputationId id) override;

  // --- diag::WaitObserver ---
  void on_wait_park(diag::WaitKind kind, std::uint64_t comp) override;
  void on_wait_unpark(diag::WaitKind kind, std::uint64_t comp) override;
  void on_wakeup_delivered(std::uint64_t comp) override;

  // Internal, public only so the implementation's thread-local "current
  // participant" pointer can name the type.
  enum class State {
    kWaiting,  // runnable, not scheduled
    kGranted,  // holds the token, not yet observed it
    kRunning,  // holds the token, executing
    kBlocked,  // parked in a controller wait
    kDone,
  };

  struct Participant {
    std::uint64_t comp = 0;
    std::uint64_t ticket = 0;
    State state = State::kWaiting;
    std::condition_variable cv;
  };

 private:
  /// If the machine is quiescent (not paused, no submitted-but-unstarted
  /// task, no in-flight wakeup, token free), pick and grant the next
  /// runnable participant. Caller holds mu_.
  void maybe_decide_locked();
  void grant_locked(Participant& p);
  /// Block the calling participant until granted, then mark it running.
  void wait_for_grant(std::unique_lock<std::mutex>& lock, Participant& p);
  [[noreturn]] void report_deadlock_locked();

  Strategy& strategy_;
  ScheduleTrace trace_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Participant>> participants_;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t steps_ = 0;
  int expected_arrivals_ = 0;
  int in_flight_wakes_ = 0;
  bool paused_ = false;
  bool token_held_ = false;
};

}  // namespace samoa::explore
