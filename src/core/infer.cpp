#include "core/infer.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/errors.hpp"

namespace samoa {

TriggerDeclarations& TriggerDeclarations::declare(const Handler& handler,
                                                  const EventType& event) {
  const auto pos = std::upper_bound(
      triggers_.begin(), triggers_.end(), handler.id(),
      [](HandlerId h, const Trigger& t) { return h < t.handler; });
  triggers_.insert(pos, Trigger{handler.id(), event.id()});
  return *this;
}

TriggerDeclarations& TriggerDeclarations::declare(
    const Handler& handler, std::initializer_list<std::reference_wrapper<const EventType>> events) {
  for (const EventType& event : events) declare(handler, event);
  return *this;
}

std::span<const TriggerDeclarations::Trigger> TriggerDeclarations::triggers_of(
    HandlerId handler) const {
  const auto [first, last] = std::equal_range(
      triggers_.begin(), triggers_.end(), Trigger{handler, EventTypeId{}},
      [](const Trigger& a, const Trigger& b) { return a.handler < b.handler; });
  return {first, last};
}

namespace {

/// BFS over bindings + declared triggers; visits every reachable handler.
/// Calls `on_edge(from, to)` for each declared call edge (from invalid =
/// root) and returns the visited handlers in visiting order. A stack holds
/// a few dozen handlers, so the visited list doubles as the queue and a
/// linear membership test beats hashing.
template <typename OnEdge>
std::vector<const Handler*> walk(const Stack& stack, const TriggerDeclarations& decls,
                                 const std::vector<EventType>& root_events, OnEdge on_edge) {
  std::vector<const Handler*> visited;
  std::size_t handlers = 0;
  for (const auto& mp : stack.microprotocols()) handlers += mp->handlers().size();
  visited.reserve(handlers);
  auto expand = [&](HandlerId from, EventTypeId ev) {
    for (const Handler* target : stack.bound_handlers(ev)) {
      on_edge(from, *target);
      if (std::find(visited.begin(), visited.end(), target) == visited.end()) {
        visited.push_back(target);
      }
    }
  };
  for (const EventType& ev : root_events) expand(HandlerId{}, ev.id());
  for (std::size_t next = 0; next < visited.size(); ++next) {
    const Handler* h = visited[next];
    for (const auto& t : decls.triggers_of(h->id())) expand(h->id(), t.event);
  }
  return visited;
}

}  // namespace

Isolation infer_members(const Stack& stack, const TriggerDeclarations& decls,
                        const std::vector<EventType>& root_events) {
  std::vector<const Microprotocol*> members;
  members.reserve(stack.microprotocols().size());
  auto visited = walk(stack, decls, root_events, [&](HandlerId, const Handler& to) {
    if (std::find(members.begin(), members.end(), &to.owner()) == members.end()) {
      members.push_back(&to.owner());
    }
  });
  if (visited.empty()) {
    throw ConfigError("infer_members: no handler is bound to any of the root event types");
  }
  return Isolation::basic(std::move(members));
}

Isolation infer_route(const Stack& stack, const TriggerDeclarations& decls,
                      const std::vector<EventType>& root_events) {
  RouteSpec spec;
  std::unordered_set<std::uint64_t> edge_seen;
  auto visited = walk(stack, decls, root_events, [&](HandlerId from, const Handler& to) {
    if (!from.valid()) {
      spec.entry(to);
      return;
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(from.value()) << 32) | to.id().value();
    if (edge_seen.insert(key).second) {
      const Handler* from_handler = stack.find_handler(from);
      spec.edge(*from_handler, to);
    }
  });
  if (visited.empty()) {
    throw ConfigError("infer_route: no handler is bound to any of the root event types");
  }
  return Isolation::route(std::move(spec));
}

}  // namespace samoa
