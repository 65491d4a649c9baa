// Context — the API handlers use to communicate.
//
// Every handler invocation (and the root expression of an `isolated`
// spawn) receives a Context bound to its computation. The four trigger
// primitives mirror J-SAMOA's:
//
//   trigger(T, m)            synchronous call of the single handler bound
//                            to T (error if zero or several are bound)
//   trigger_all(T, m)        synchronous calls of all bound handlers, in
//                            binding order
//   async_trigger(T, m)      as trigger, but the handler runs as a separate
//                            task of the same computation (on another
//                            thread, or later on this one when the
//                            runtime dispatches inline)
//   async_trigger_all(T, m)  as trigger_all, asynchronous
//
// Internal events issued here are causally dependent on the current
// computation; they never escape it. Spawning a *new* computation is the
// runtime's spawn_isolated — only external events do that.
#pragma once

#include <memory>
#include <vector>

#include "core/event.hpp"
#include "util/ids.hpp"

namespace samoa {

class Computation;
class Handler;
class Runtime;
class Stack;

class Context {
 public:
  Context(std::shared_ptr<Computation> comp, HandlerId current);

  void trigger(const EventType& type, Message msg = {});
  void trigger_all(const EventType& type, Message msg = {});
  void async_trigger(const EventType& type, Message msg = {});
  void async_trigger_all(const EventType& type, Message msg = {});

  /// Voluntary scheduling point for the schedule explorer: under an
  /// exploring runtime, hands the interleaving token back and blocks until
  /// re-granted (any other runnable computation may run in between).
  /// Without a StepHook this is a no-op — handler bodies in fuzzable
  /// workloads can sprinkle these freely. `label` names the point in
  /// decision traces.
  void yield_point(const char* label = "");

  Runtime& runtime() const;
  Stack& stack() const;
  Computation& computation() const { return *comp_; }
  ComputationId computation_id() const;
  /// Handler whose body is currently executing; invalid id inside the
  /// root expression of the spawn.
  HandlerId current_handler() const { return current_; }

 private:
  friend class Runtime;

  enum class Fanout { kOne, kAll };
  void dispatch(const EventType& type, const Message& msg, Fanout fanout, bool async);
  /// Batched async fan-out under executor dispatch: one queue node per
  /// target shard instead of one per handler (amortizes the ring CAS and
  /// the consumer wakeup across same-shard handlers).
  void dispatch_batched(class ExecutorGroup& ex, const std::vector<const Handler*>& handlers,
                        const Message& msg);
  void run_handler_now(const Handler& h, const Message& msg);
  void enqueue_handler(const Handler& h, Message msg);

  std::shared_ptr<Computation> comp_;
  HandlerId current_;
};

}  // namespace samoa
