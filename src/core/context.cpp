#include "core/context.hpp"

#include "core/computation.hpp"
#include "core/errors.hpp"
#include "core/runtime.hpp"
#include "core/stack.hpp"
#include "core/trace.hpp"
#include "diag/wait_registry.hpp"

namespace samoa {

Context::Context(std::shared_ptr<Computation> comp, HandlerId current)
    : comp_(std::move(comp)), current_(current) {}

Runtime& Context::runtime() const { return comp_->runtime(); }
Stack& Context::stack() const { return comp_->runtime().stack(); }
ComputationId Context::computation_id() const { return comp_->id(); }

void Context::trigger(const EventType& type, Message msg) {
  dispatch(type, msg, Fanout::kOne, /*async=*/false);
}

void Context::trigger_all(const EventType& type, Message msg) {
  dispatch(type, msg, Fanout::kAll, /*async=*/false);
}

void Context::async_trigger(const EventType& type, Message msg) {
  dispatch(type, msg, Fanout::kOne, /*async=*/true);
}

void Context::async_trigger_all(const EventType& type, Message msg) {
  dispatch(type, msg, Fanout::kAll, /*async=*/true);
}

void Context::dispatch(const EventType& type, const Message& msg, Fanout fanout, bool async) {
  Runtime& rt = comp_->runtime();
  const auto& handlers = rt.stack().bound_handlers(type.id());
  if (fanout == Fanout::kOne && handlers.size() != 1) {
    throw ConfigError("trigger '" + type.name() + "': expected exactly one bound handler, found " +
                      std::to_string(handlers.size()) + " (use trigger_all for multi-bind types)");
  }
  if (async && !comp_->cc().allows_async()) {
    throw ConfigError(std::string("asynchronous triggers are not supported under the ") +
                      rt.controller().name() +
                      " controller (a restart cannot recall in-flight tasks)");
  }
  if (async && fanout == Fanout::kAll && handlers.size() > 1) {
    if (ExecutorGroup* ex = rt.executor_group()) {
      dispatch_batched(*ex, handlers, msg);
      return;
    }
  }
  for (const Handler* h : handlers) {
    // Issue runs synchronously in this thread: declaration violations
    // (IsolationError) surface here, and VCAroute marks the callee
    // pending before the caller can complete.
    comp_->cc().on_issue(current_, *h);
    if (TraceRecorder* tr = rt.trace()) {
      tr->record(TracePhase::kIssue, comp_->id(), h->owner().id(), h->id());
    }
    if (async) {
      enqueue_handler(*h, msg);
    } else {
      run_handler_now(*h, msg);
    }
  }
}

void Context::dispatch_batched(ExecutorGroup& ex, const std::vector<const Handler*>& handlers,
                               const Message& msg) {
  Runtime& rt = comp_->runtime();
  // Group handlers by target shard, preserving binding order within each
  // group; one queue node per shard amortizes the enqueue CAS and the
  // consumer wakeup, and same-shard handlers run back-to-back in one
  // drain batch with zero cross-thread handoffs.
  std::vector<std::pair<std::size_t, std::vector<const Handler*>>> groups;
  auto flush = [&] {
    for (auto& [shard, hs] : groups) {
      for (std::size_t i = 0; i < hs.size(); ++i) comp_->task_started();
      auto comp = comp_;
      ex.submit(
          shard,
          [comp, hs = std::move(hs), msg] {
            diag::ScopedComputation diag_scope(comp->id().value());
            for (const Handler* h : hs) {
              Context ctx(comp, HandlerId{});
              try {
                ctx.run_handler_now(*h, msg);
              } catch (...) {
                comp->record_error(std::current_exception());
              }
              comp->task_finished();
            }
          },
          comp_->id().value());
    }
  };
  // Issues stay synchronous and in binding order (declaration violations
  // surface to the caller; VCAroute pending marks land before anything
  // runs). If one throws mid-way, the handlers already issued are
  // accounted for by the controller and must still execute: flush what
  // was grouped so far, then propagate.
  try {
    for (const Handler* h : handlers) {
      comp_->cc().on_issue(current_, *h);
      if (TraceRecorder* tr = rt.trace()) {
        tr->record(TracePhase::kIssue, comp_->id(), h->owner().id(), h->id());
      }
      const std::size_t shard = ex.shard_of(h->owner().id().value());
      auto it = groups.begin();
      for (; it != groups.end(); ++it) {
        if (it->first == shard) break;
      }
      if (it == groups.end()) {
        groups.push_back({shard, {}});
        it = std::prev(groups.end());
      }
      it->second.push_back(h);
    }
  } catch (...) {
    flush();
    throw;
  }
  flush();
}

void Context::yield_point(const char* label) {
  if (StepHook* hook = comp_->runtime().step_hook()) hook->step_point(comp_->id(), label);
}

void Context::run_handler_now(const Handler& h, const Message& msg) {
  Runtime& rt = comp_->runtime();
  // A scheduling point before the gate: the explorer may interleave any
  // other runnable computation between the issue and this execution.
  if (StepHook* hook = rt.step_hook()) hook->step_point(comp_->id(), "before-execute");
  comp_->cc().before_execute(h);  // version gate (Rule 2); may block
  // The gate may have parked this thread (releasing the exploration token
  // via the wait observer); re-acquire it before the kStart record so the
  // trace order is schedule-determined, not OS-timing-determined.
  if (StepHook* hook = rt.step_hook()) hook->resync(comp_->id());
  if (TraceRecorder* tr = rt.trace()) {
    tr->record(TracePhase::kStart, comp_->id(), h.owner().id(), h.id(), h.read_only());
  }
  rt.count_handler_call();
  Context inner(comp_, h.id());
  // after_execute must run even if the handler throws: VCAbound's Rule 4
  // and VCAroute's status bookkeeping are what keep other computations
  // live. The exception propagates to the (synchronous) caller, as in
  // J-SAMOA.
  try {
    h.invoke(inner, msg);
  } catch (...) {
    if (TraceRecorder* tr = rt.trace()) {
      tr->record(TracePhase::kEnd, comp_->id(), h.owner().id(), h.id(), h.read_only());
    }
    comp_->cc().after_execute(h);
    throw;
  }
  if (TraceRecorder* tr = rt.trace()) {
    tr->record(TracePhase::kEnd, comp_->id(), h.owner().id(), h.id(), h.read_only());
  }
  comp_->cc().after_execute(h);
}

void Context::enqueue_handler(const Handler& h, Message msg) {
  comp_->task_started();
  Runtime& rt = comp_->runtime();
  StepHook* hook = rt.step_hook();
  const std::uint64_t ticket = hook != nullptr ? hook->on_task_submitted(comp_->id()) : 0;
  auto comp = comp_;
  auto task = [comp, &h, hook, ticket, msg = std::move(msg)]() mutable {
    diag::ScopedComputation diag_scope(comp->id().value());
    if (hook != nullptr) hook->on_task_started(comp->id(), ticket);
    Context ctx(comp, HandlerId{});
    try {
      ctx.run_handler_now(h, msg);
    } catch (...) {
      // Asynchronous handlers have no caller to propagate to: record on
      // the computation, rethrown from ComputationHandle::wait().
      comp->record_error(std::current_exception());
    }
    comp->task_finished();
    if (hook != nullptr) hook->on_task_finished(comp->id());
  };
  // Inline, or the owning microprotocol's shard (hook != nullptr implies
  // the executor is disabled — see RuntimeOptions::dispatch_impl).
  rt.submit_handler(h.owner().id().value(), comp->id().value(), std::move(task));
}

}  // namespace samoa
