// Strong identifier types used throughout samoa-cpp.
//
// Every first-class runtime entity (event types, microprotocols, handlers,
// computations, sites) is referred to by a small integral id. Ids are
// allocated by monotone counters; names are interned alongside so that
// diagnostics and traces stay human-readable without carrying strings on
// hot paths.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace samoa {

/// Tag-discriminated integral id. Distinct Tag types are not comparable or
/// convertible to each other, which prevents e.g. passing a HandlerId where
/// a MicroprotocolId is expected.
template <typename Tag>
class Id {
 public:
  using value_type = std::uint32_t;
  static constexpr value_type kInvalid = ~value_type{0};

  constexpr Id() = default;
  constexpr explicit Id(value_type v) : value_(v) {}

  constexpr value_type value() const { return value_; }
  constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr auto operator<=>(Id, Id) = default;

 private:
  value_type value_ = kInvalid;
};

struct EventTypeTag {};
struct MicroprotocolTag {};
struct HandlerTag {};
struct ComputationTag {};
struct SiteTag {};

using EventTypeId = Id<EventTypeTag>;
using MicroprotocolId = Id<MicroprotocolTag>;
using HandlerId = Id<HandlerTag>;
using ComputationId = Id<ComputationTag>;
using SiteId = Id<SiteTag>;

/// Monotone id allocator handing out `first`, `first + 1`, ...
template <typename Tag>
class IdAllocator {
 public:
  explicit IdAllocator(typename Id<Tag>::value_type first = 0) : counter_(first) {}

  Id<Tag> next() { return Id<Tag>(counter_.fetch_add(1, std::memory_order_relaxed)); }

 private:
  std::atomic<typename Id<Tag>::value_type> counter_;
};

std::ostream& operator<<(std::ostream& os, EventTypeId id);
std::ostream& operator<<(std::ostream& os, MicroprotocolId id);
std::ostream& operator<<(std::ostream& os, HandlerId id);
std::ostream& operator<<(std::ostream& os, ComputationId id);
std::ostream& operator<<(std::ostream& os, SiteId id);

}  // namespace samoa

namespace std {
template <typename Tag>
struct hash<samoa::Id<Tag>> {
  size_t operator()(samoa::Id<Tag> id) const noexcept {
    return std::hash<typename samoa::Id<Tag>::value_type>{}(id.value());
  }
};
}  // namespace std
