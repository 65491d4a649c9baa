// Inference of isolation declarations.
//
// Section 4 of the paper remarks that "in the strongly-typed language, the
// proper value of argument M could be inferred statically". C++ lambdas
// are opaque, so samoa-cpp provides the moral equivalent: microprotocols
// declare which event types each handler may trigger (cheap, checkable
// metadata), and the inference walks the binding table to compute
//
//   * the microprotocol set M for `isolated M e`            (infer_members)
//   * the handler graph for `isolated route M e`            (infer_route)
//
// from the set of event types the root expression may trigger. Inference
// is conservative: it follows every declared trigger regardless of runtime
// data, so the result over-approximates the actual call footprint — which
// is exactly what a legal declaration needs (over-declaration is allowed,
// under-declaration throws IsolationError at run time).
#pragma once

#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/isolation.hpp"
#include "core/stack.hpp"

namespace samoa {

/// Registry of declared handler -> event-type triggers. Populate with
/// declare() during protocol composition; handlers without declarations
/// are treated as leaves (they trigger nothing).
class TriggerDeclarations {
 public:
  struct Trigger {
    HandlerId handler;
    EventTypeId event;
  };

  /// Declare that `handler`'s body may trigger `event`.
  TriggerDeclarations& declare(const Handler& handler, const EventType& event);
  /// Declare that `handler`'s body may trigger each of `events`.
  TriggerDeclarations& declare(
      const Handler& handler,
      std::initializer_list<std::reference_wrapper<const EventType>> events);

  /// The declared triggers of `handler`, in declaration order.
  std::span<const Trigger> triggers_of(HandlerId handler) const;

 private:
  /// One flat table kept sorted by handler (stable), so a handler's
  /// triggers are contiguous: a stack declares a few dozen, and
  /// inference runs once per root event at composition time.
  std::vector<Trigger> triggers_;
};

/// Microprotocols whose handlers are reachable when the root expression
/// triggers any of `root_events`, following `decls` over the stack's
/// bindings. Usable directly as Isolation::basic(...) input — returns the
/// ready declaration.
Isolation infer_members(const Stack& stack, const TriggerDeclarations& decls,
                        const std::vector<EventType>& root_events);

/// The routing pattern for the same computation type: entries are the
/// handlers bound to `root_events`; an edge h1 -> h2 exists when h1
/// declares a trigger of an event type h2 is bound to. Returns the ready
/// `isolated route` declaration (resolve happens at spawn).
Isolation infer_route(const Stack& stack, const TriggerDeclarations& decls,
                      const std::vector<EventType>& root_events);

}  // namespace samoa
