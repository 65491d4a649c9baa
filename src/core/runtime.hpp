// Runtime — spawning of isolated computations.
//
// One Runtime drives one protocol stack with one concurrency-control
// policy. `spawn_isolated(spec, root)` is the C++ rendering of the paper's
// `isolated M e`: it admits a new computation under the controller
// (Step 1), runs `root` on a worker of the runtime's elastic pool, and
// guarantees that the concurrent execution of all spawned computations
// satisfies the isolation property (for the VCA policies; kSerial
// trivially so, kUnsync not at all — it exists as the Cactus-like
// baseline). The version gates order conflicting handler calls; the pool
// only supplies threads.
//
// Under a virtual clock (and no step hook) there is no pool worker: the
// computation runs inline, to completion, on the spawning thread (see
// Runtime::runs_inline). The clock and the hook make that choice; there is
// no option for it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cc/controller.hpp"
#include "core/computation.hpp"
#include "core/context.hpp"
#include "core/stack.hpp"
#include "core/step_hook.hpp"
#include "core/trace.hpp"
#include "time/clock.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace samoa {

struct RuntimeOptions {
  CCPolicy policy = CCPolicy::kVCABasic;
  /// Record (event, handler) runs for the isolation checker / diagnostics.
  bool record_trace = false;
  /// Time base. Null means the process wall clock. Under a
  /// time::VirtualClock the runtime holds one activity pin per in-flight
  /// computation, so virtual time stands still while computations run,
  /// and (without a step_hook) runs every computation inline — see
  /// Runtime::runs_inline.
  time::ClockSource* clock = nullptr;
  /// Schedule-exploration seam (see core/step_hook.hpp). Null — the
  /// default — costs one pointer test per scheduling point; non-null
  /// serializes all computation tasks behind the hook's token scheduler,
  /// on the elastic pool even under a virtual clock.
  StepHook* step_hook = nullptr;
};

class Runtime {
 public:
  explicit Runtime(Stack& stack, RuntimeOptions opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Spawn a computation under the isolation declaration `spec`; `root` is
  /// the expression e of `isolated M e`. Seals the stack on first use.
  /// `spec` is read during the call only (the controller keeps what it
  /// needs), so a declaration derived once can serve every spawn.
  ComputationHandle spawn_isolated(const Isolation& spec, std::function<void(Context&)> root);

  /// One element of a batched spawn: the same (spec, root) pair
  /// spawn_isolated takes.
  struct SpawnRequest {
    Isolation spec;
    std::function<void(Context&)> root;
  };

  /// Spawn a burst of computations as one admission transaction: the
  /// controller admits the whole batch (one version-range claim per gate
  /// for compatible single-mp bursts — see admit_batch), and the pool
  /// enqueues every root task under a single lock acquisition. Semantics
  /// are identical to calling spawn_isolated for each request in order;
  /// handle i corresponds to request i.
  std::vector<ComputationHandle> spawn_isolated_batch(std::vector<SpawnRequest> reqs);

  /// Block until every computation spawned so far completed.
  void drain();

  Stack& stack() { return stack_; }
  ElasticThreadPool& pool() { return pool_; }
  ConcurrencyController& controller() { return *controller_; }
  CCPolicy policy() const { return opts_.policy; }

  /// True when the clock is virtual and no step hook is installed: every
  /// root task and its async handler tasks then run to completion on the
  /// spawning thread, from a per-thread FIFO, with no pool workers.
  /// Queued handler tasks run before any queued root, so a computation
  /// spawned from inside another runs after its spawner completed, never
  /// re-entrantly. Virtual time already runs events one at a time; this
  /// removes every thread handoff from an event. Otherwise every task
  /// runs on the elastic pool.
  bool runs_inline() const { return inline_; }

  /// Null when tracing is off.
  TraceRecorder* trace() { return trace_ ? trace_.get() : nullptr; }

  /// Null unless a schedule explorer drives this runtime.
  StepHook* step_hook() { return opts_.step_hook; }

  struct Stats {
    Counter spawned;
    Counter completed;
    /// Of the completed: computations that recorded an error (a handler
    /// threw, e.g. IsolationError for an undeclared call). Nobody may be
    /// waiting on such a computation, so this is where it shows.
    Counter failed;
    Counter handler_calls;
  };
  const Stats& stats() const { return stats_; }

  // -- internal (called by Computation / Context) --
  void record_computation_done(ComputationId id);
  void on_computation_done(ComputationId id, bool failed);
  void count_handler_call() { stats_.handler_calls.add(); }
  /// Route an async handler task of computation `comp_id` to the calling
  /// thread's inline FIFO or to the elastic pool.
  void submit_handler(std::uint64_t comp_id, std::function<void()> fn);

 private:
  /// Erase `id` from inflight_, waking drain(). Returns whether this call
  /// removed it — the winner owns the computation's virtual-time unpin.
  bool remove_inflight(ComputationId id);

  /// Build the pool task that runs `root` as `comp`'s root expression
  /// (including the TSO restart loop); shared by single and batched spawn.
  std::function<void()> root_task(std::shared_ptr<Computation> comp,
                                  std::function<void(Context&)> root, std::uint64_t ticket);

  /// Route a root task to the calling thread's inline FIFO (run before
  /// returning unless that thread is already running inline tasks) or to
  /// the elastic pool.
  void submit_root(std::uint64_t comp_id, std::function<void()> fn);

  Stack& stack_;
  RuntimeOptions opts_;
  bool inline_;
  std::unique_ptr<ConcurrencyController> controller_;
  std::unique_ptr<TraceRecorder> trace_;
  ElasticThreadPool pool_;

  IdAllocator<ComputationTag> comp_ids_;
  Stats stats_;

  mutable std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::unordered_map<ComputationId, std::shared_ptr<Computation>> inflight_;
};

}  // namespace samoa
