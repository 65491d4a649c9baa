#include "core/runtime.hpp"

#include <cassert>
#include <deque>

#include "core/errors.hpp"
#include "diag/wait_registry.hpp"

namespace samoa {

namespace {

/// The pool's worker floor and its cap on runnable workers (parked ones do
/// not count; see util/thread_pool.hpp).
constexpr std::size_t kMinThreads = 2;
constexpr std::size_t kMaxThreads = 1024;

/// The calling thread's run-to-completion queue for inline dispatch. Every
/// handler task belongs to a computation already running on this thread,
/// so handlers go first: a root queued by a nested spawn starts only once
/// every computation started before it has completed.
struct InlineQueue {
  std::deque<std::function<void()>> handlers;
  std::deque<std::function<void()>> roots;
  bool draining = false;

  /// Run queued tasks until both FIFOs are empty. On a thread that is
  /// already draining this returns at once: the outer drain runs what was
  /// queued after the task that queued it, never re-entrantly.
  void drain() {
    if (draining) return;
    draining = true;
    struct Reset {
      bool& flag;
      ~Reset() { flag = false; }
    } reset{draining};
    for (;;) {
      auto& fifo = handlers.empty() ? roots : handlers;
      if (fifo.empty()) return;
      std::function<void()> task = std::move(fifo.front());
      fifo.pop_front();
      task();
    }
  }
};

thread_local InlineQueue t_inline;

}  // namespace

Runtime::Runtime(Stack& stack, RuntimeOptions opts)
    : stack_(stack),
      opts_(opts),
      inline_(opts.clock != nullptr && opts.clock->is_virtual() && opts.step_hook == nullptr),
      controller_(make_controller(opts.policy)),
      trace_(opts.record_trace ? std::make_unique<TraceRecorder>() : nullptr),
      pool_(ElasticThreadPool::Options{inline_ ? 0 : kMinThreads, kMaxThreads,
                                       std::chrono::milliseconds(200)}) {}

Runtime::~Runtime() {
  drain();
  pool_.shutdown();
}

void Runtime::submit_root(std::uint64_t comp_id, std::function<void()> fn) {
  if (inline_) {
    t_inline.roots.push_back(std::move(fn));
    t_inline.drain();
  } else {
    pool_.submit(std::move(fn), comp_id);
  }
}

void Runtime::submit_handler(std::uint64_t comp_id, std::function<void()> fn) {
  if (inline_) {
    // Issued by a computation running inline, so the drain running it
    // picks this up.
    assert(t_inline.draining);
    t_inline.handlers.push_back(std::move(fn));
  } else {
    pool_.submit(std::move(fn), comp_id);
  }
}

std::function<void()> Runtime::root_task(std::shared_ptr<Computation> comp,
                                         std::function<void(Context&)> root,
                                         std::uint64_t ticket) {
  return [this, comp = std::move(comp), ticket, root = std::move(root)] {
    diag::ScopedComputation diag_scope(comp->id().value());
    StepHook* hook = opts_.step_hook;
    if (hook != nullptr) hook->on_task_started(comp->id(), ticket);
    // The loop only repeats under TSO, whose wait-die losers roll back
    // their TxVar state and re-run with a fresh timestamp. The versioning
    // controllers never abort, so the first pass is the only pass.
    constexpr std::uint32_t kMaxRestarts = 1000;
    for (;;) {
      Context ctx(comp, HandlerId{});
      try {
        comp->cc().on_start();
        // on_start may have parked (serial turn) and lost the
        // exploration token; re-acquire it with no locks held before
        // running observable work.
        if (hook != nullptr) hook->resync(comp->id());
        root(ctx);
      } catch (const RestartNeeded&) {
        // Order matters: roll the TxVar state back *while the claims are
        // still held* — releasing first would let another computation read
        // (and build on) state the rollback is about to clobber.
        comp->undo_log().rollback();  // restore TxVar state
        comp->cc().on_abort();        // then release claims; keeps its timestamp
        if (hook != nullptr) hook->resync(comp->id());  // on_abort may park (death wait)
        // Everything this pass touched has been undone; tell the trace so
        // the isolation checker ignores the aborted accesses. The retry
        // keeps the original timestamp (classic wait-die), so a restarted
        // computation only ever gets older relative to newcomers and
        // cannot starve.
        if (trace_) {
          trace_->record(TracePhase::kAbort, comp->id(), MicroprotocolId{}, HandlerId{});
        }
        comp->count_restart();
        if (comp->restarts() >= kMaxRestarts) {
          comp->record_error(std::make_exception_ptr(
              SamoaError("TSO computation exceeded the restart limit (livelock?)")));
          break;
        }
        continue;
      } catch (...) {
        comp->record_error(std::current_exception());
      }
      comp->undo_log().clear();  // committed: drop the rollback entries
      break;
    }
    comp->cc().on_root_done();
    if (hook != nullptr) hook->resync(comp->id());
    // If this was the computation's last task, task_finished runs
    // finalize (on_complete + completion signal) on this thread, still
    // under the exploration token; the token is released for good below.
    comp->task_finished();
    if (hook != nullptr) hook->on_task_finished(comp->id());
  };
}

ComputationHandle Runtime::spawn_isolated(const Isolation& spec,
                                          std::function<void(Context&)> root) {
  if (!stack_.sealed()) stack_.seal();

  const ComputationId id = comp_ids_.next();
  // Step 1 (atomic admission) happens inside the controller. A route
  // declaration is resolved against the stack first, on a copy.
  std::unique_ptr<ComputationCC> cc;
  if (spec.kind() == Isolation::Kind::Route) {
    Isolation resolved = spec;
    resolved.resolve_route(stack_);
    cc = controller_->admit(id, resolved);
  } else {
    cc = controller_->admit(id, spec);
  }
  auto comp = std::make_shared<Computation>(*this, id, std::move(cc));
  if (opts_.policy == CCPolicy::kTSO) comp->enable_undo();

  {
    std::unique_lock lock(inflight_mu_);
    inflight_.emplace(id, comp);
  }
  // Pin virtual time for the lifetime of the computation: the simulated
  // clock must not advance (and no further event may dispatch) until the
  // work this event triggered has fully completed. The matching unpin is
  // tied to removing `id` from inflight_ (normally in on_computation_done;
  // in the catch below if tracing or submission throws) — whichever path
  // wins the erase unpins, so the pin is released exactly once even when
  // pool_.submit enqueues the task before throwing. A leaked pin would
  // freeze virtual time forever.
  if (opts_.clock != nullptr) opts_.clock->pin();
  try {
    stats_.spawned.add();
    if (trace_) trace_->record(TracePhase::kSpawn, id, MicroprotocolId{}, HandlerId{});

    comp->task_started();  // the root expression counts as one task
    const std::uint64_t ticket =
        opts_.step_hook != nullptr ? opts_.step_hook->on_task_submitted(id) : 0;
    submit_root(id.value(), root_task(comp, std::move(root), ticket));
  } catch (...) {
    if (remove_inflight(id) && opts_.clock != nullptr) opts_.clock->unpin();
    throw;
  }
  return ComputationHandle(comp);
}

void Runtime::record_computation_done(ComputationId id) {
  if (trace_) trace_->record(TracePhase::kDone, id, MicroprotocolId{}, HandlerId{});
}

bool Runtime::remove_inflight(ComputationId id) {
  std::unique_lock lock(inflight_mu_);
  const bool removed = inflight_.erase(id) > 0;
  if (removed) inflight_cv_.notify_all();
  return removed;
}

void Runtime::on_computation_done(ComputationId id, bool failed) {
  stats_.completed.add();
  if (failed) stats_.failed.add();
  if (remove_inflight(id) && opts_.clock != nullptr) opts_.clock->unpin();
}

void Runtime::drain() {
  std::unique_lock lock(inflight_mu_);
  if (inflight_.empty()) return;
  diag::ScopedWait wait(diag::WaitKind::kDrain, this, "runtime-drain", 0, 0, inflight_.size());
  inflight_cv_.wait(lock, [this] { return inflight_.empty(); });
}

}  // namespace samoa
