#include "core/isolation.hpp"

#include <algorithm>

#include "core/errors.hpp"
#include "core/stack.hpp"

namespace samoa {

Isolation Isolation::basic(std::vector<const Microprotocol*> mps) {
  Isolation iso(Kind::Basic);
  iso.members_.reserve(mps.size());
  iso.member_names_.reserve(mps.size());
  for (const auto* mp : mps) {
    if (mp == nullptr) throw ConfigError("Isolation::basic: null microprotocol");
    iso.add_member(*mp);
  }
  return iso;
}

Isolation Isolation::bound(std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds) {
  Isolation iso(Kind::Bound);
  for (const auto& [mp, b] : bounds) {
    if (mp == nullptr) throw ConfigError("Isolation::bound: null microprotocol");
    if (b == 0) throw ConfigError("Isolation::bound: bound must be >= 1 for " + mp->name());
    if (iso.declares(mp->id())) throw ConfigError("Isolation::bound: duplicate " + mp->name());
    iso.add_member(*mp);
    iso.bounds_.emplace(mp->id(), b);
  }
  return iso;
}

Isolation Isolation::route(RouteSpec spec) {
  Isolation iso(Kind::Route);
  iso.route_ = std::move(spec);
  return iso;
}

Isolation Isolation::read_write(std::vector<std::pair<const Microprotocol*, Access>> accesses) {
  Isolation iso(Kind::ReadWrite);
  for (const auto& [mp, access] : accesses) {
    if (mp == nullptr) throw ConfigError("Isolation::read_write: null microprotocol");
    if (iso.declares(mp->id())) {
      throw ConfigError("Isolation::read_write: duplicate " + mp->name());
    }
    iso.add_member(*mp);
    iso.accesses_.emplace(mp->id(), access);
  }
  return iso;
}

bool Isolation::declares(MicroprotocolId mp) const {
  return std::find(members_.begin(), members_.end(), mp) != members_.end();
}

void Isolation::add_member(const Microprotocol& mp) {
  if (declares(mp.id())) return;
  members_.push_back(mp.id());
  member_names_.push_back(mp.name().c_str());
}

void Isolation::resolve_route(const Stack& stack) {
  if (kind_ != Kind::Route) return;
  members_.clear();
  member_names_.clear();
  route_owners_.clear();
  auto note_handler = [&](HandlerId h) {
    const Handler* handler = stack.find_handler(h);
    if (handler == nullptr) {
      throw ConfigError("Isolation::route: handler not found in stack");
    }
    route_owners_.emplace(h, handler->owner().id());
    add_member(handler->owner());
  };
  for (HandlerId h : route_.entries) note_handler(h);
  for (const auto& [from, to] : route_.edges) {
    note_handler(from);
    note_handler(to);
  }
  if (members_.empty()) {
    throw ConfigError("Isolation::route: empty routing pattern");
  }
}

std::string Isolation::describe() const {
  switch (kind_) {
    case Kind::Basic:
      return "isolated";
    case Kind::Bound:
      return "isolated bound";
    case Kind::Route:
      return "isolated route";
    case Kind::ReadWrite:
      return "isolated rw";
  }
  return "?";
}

}  // namespace samoa
