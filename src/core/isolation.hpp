// Isolation declarations — the programmer-facing half of the paper's
// `isolated` construct family (Section 4):
//
//   isolated M e         -> Isolation::basic({&p, &q, ...})
//   isolated bound M e   -> Isolation::bound({{&p, 2}, {&q, 1}, ...})
//   isolated route M e   -> Isolation::route(RouteSpec{...})
//
// The declaration names every microprotocol (or handler route) the spawned
// computation may touch; the runtime's concurrency controller uses it to
// admit the computation (Step 1 of the VCA algorithms) and to police calls
// (throwing IsolationError on undeclared access).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/microprotocol.hpp"
#include "util/ids.hpp"

namespace samoa {

/// Routing pattern for `isolated route M e`: a directed graph over
/// handlers. An edge h1 -> h2 declares that the body of h1 may call h2;
/// `entries` are the handlers the root expression e may call directly.
struct RouteSpec {
  std::vector<HandlerId> entries;
  std::vector<std::pair<HandlerId, HandlerId>> edges;

  RouteSpec& entry(const Handler& h) {
    entries.push_back(h.id());
    return *this;
  }
  RouteSpec& edge(const Handler& from, const Handler& to) {
    edges.emplace_back(from.id(), to.id());
    return *this;
  }
};

/// Declared access mode per microprotocol, for Isolation::read_write (the
/// paper's future-work isolation levels: read-only accesses of different
/// computations may share a microprotocol).
enum class Access {
  kRead,   // the computation will only call read-only handlers of p
  kWrite,  // unrestricted (exclusive) access
};

class Isolation {
 public:
  enum class Kind { Basic, Bound, Route, ReadWrite };

  static Isolation basic(std::vector<const Microprotocol*> mps);
  static Isolation bound(std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds);
  static Isolation route(RouteSpec spec);
  static Isolation read_write(std::vector<std::pair<const Microprotocol*, Access>> accesses);

  Kind kind() const { return kind_; }

  /// Microprotocols the computation may visit. For Route specs this is
  /// derived lazily by the runtime (handler ids must be resolved against a
  /// stack), so it is empty until resolve_route() was called.
  const std::vector<MicroprotocolId>& members() const { return members_; }

  /// The name of each of members(), in the same order, for blocked-state
  /// dumps. Each points into its microprotocol, which outlives every
  /// computation of its stack.
  const std::vector<const char*>& member_names() const { return member_names_; }

  /// Least upper bounds; only meaningful for Kind::Bound.
  const std::unordered_map<MicroprotocolId, std::uint32_t>& bounds() const { return bounds_; }

  /// Declared access modes; only meaningful for Kind::ReadWrite.
  const std::unordered_map<MicroprotocolId, Access>& accesses() const { return accesses_; }

  /// Only meaningful for Kind::Route.
  const RouteSpec& route_spec() const { return route_; }

  /// Owning microprotocol of each handler appearing in the route spec;
  /// filled by resolve_route().
  const std::unordered_map<HandlerId, MicroprotocolId>& route_owners() const {
    return route_owners_;
  }

  bool declares(MicroprotocolId mp) const;

  /// Resolve route handler ids to their owning microprotocols (fills
  /// members()). Called by the runtime at spawn; requires every handler in
  /// the spec to exist in `stack`. Throws ConfigError otherwise.
  void resolve_route(const class Stack& stack);

  /// Human-readable description of the declaration kind, for diagnostics.
  std::string describe() const;

 private:
  explicit Isolation(Kind kind) : kind_(kind) {}

  /// Append mp to members() unless it is declared already.
  void add_member(const Microprotocol& mp);

  Kind kind_;
  std::vector<MicroprotocolId> members_;
  std::vector<const char*> member_names_;
  std::unordered_map<MicroprotocolId, std::uint32_t> bounds_;
  std::unordered_map<MicroprotocolId, Access> accesses_;
  RouteSpec route_;
  std::unordered_map<HandlerId, MicroprotocolId> route_owners_;
};

}  // namespace samoa
