#include "core/computation.hpp"

#include <stdexcept>

#include "core/errors.hpp"
#include "core/runtime.hpp"
#include "diag/wait_registry.hpp"

namespace samoa {

Computation::Computation(Runtime& runtime, ComputationId id, std::unique_ptr<ComputationCC> cc)
    : runtime_(runtime),
      id_(id),
      cc_(std::move(cc)),
      inline_thread_(runtime.runs_inline() ? std::this_thread::get_id() : std::thread::id{}) {}

void Computation::task_started() { pending_tasks_.fetch_add(1, std::memory_order_acq_rel); }

void Computation::task_finished() {
  const auto prev = pending_tasks_.fetch_sub(1, std::memory_order_acq_rel);
  if (prev == 0) throw std::logic_error("Computation::task_finished without task_started");
  if (prev == 1) finalize();
}

void Computation::finalize() {
  // The computation's execution is complete here (all tasks terminated);
  // record kDone before Step 3 releases any version, so that a successor's
  // first kStart always follows this computation's kDone in the trace.
  runtime_.record_computation_done(id_);
  // Step 3 of the algorithms: may block until older computations released
  // the shared microprotocols. Runs exactly once, on the thread of the
  // last task to finish.
  try {
    cc_->on_complete();
  } catch (...) {
    record_error(std::current_exception());
  }
  // on_complete may have parked (Step 3's wait) and lost the exploration
  // token; re-acquire it before the observable completion transitions.
  if (StepHook* hook = runtime_.step_hook()) hook->resync(id_);
  // Book-keeping before the completion signal: a waiter woken by
  // completed_ must observe the runtime's final counters.
  runtime_.on_computation_done(id_, failed());
  diag::WaitRegistry::instance().note_progress();
  completed_.set();
}

void Computation::wait_done() {
  if (completed_.is_set()) return;
  // Inline dispatch runs every task of this computation on its spawning
  // thread; if that is the caller, its work is queued behind the caller.
  if (inline_thread_ == std::this_thread::get_id()) {
    throw ConfigError("waiting on computation " + std::to_string(id_.value()) +
                      " from the thread that runs it inline would deadlock: it only starts "
                      "after the waiting computation completed");
  }
  diag::ScopedWait wait(diag::WaitKind::kCompletion, this, "computation", id_.value(),
                        id_.value() + 1, 0);
  completed_.wait();
}

void Computation::record_error(std::exception_ptr e) {
  std::unique_lock lock(error_mu_);
  if (!first_error_) first_error_ = std::move(e);
}

bool Computation::failed() const {
  std::unique_lock lock(error_mu_);
  return first_error_ != nullptr;
}

void Computation::rethrow_if_error() const {
  std::exception_ptr e;
  {
    std::unique_lock lock(error_mu_);
    e = first_error_;
  }
  if (e) std::rethrow_exception(e);
}

}  // namespace samoa
