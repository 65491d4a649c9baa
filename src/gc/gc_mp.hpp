// Base class for group-communication microprotocols, and the one rule
// every one of their handlers runs under.
//
// A handler is registered with handle() as a body that takes an Outbox and
// the event's payload, or the Outbox alone for a timer tick. The base
// unpacks the payload, runs the body under guard(), and flushes the Outbox
// only once the guard is released. That is the Cactus-style manual lock of
// GcOptions::manual_locks: every handler body runs under its
// microprotocol's own mutex and never triggers while holding it. A body
// has no Context, so it can neither trigger under the guard nor skip the
// guard. Under the VCA policies the guard is a no-op — the runtime's
// concurrency control already guarantees exclusive access per
// computation, which is the paper's whole point — and the outbox merely
// defers triggers to the end of the body, which is equivalent.
#pragma once

#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/microprotocol.hpp"
#include "gc/events.hpp"
#include "gc/gc_options.hpp"

namespace samoa::gc {

/// Deferred event emission (C++ Core Guidelines CP.22: never call unknown
/// code while holding a lock). A handler body queues its outgoing events
/// while the microprotocol guard is held, and GcMicroprotocol flushes them
/// after releasing it, so the manual-lock baseline can never deadlock on
/// nested microprotocol locks — the realistic discipline a careful Cactus
/// programmer follows.
///
/// An entry names its event by address: every EventType a body triggers
/// outlives the computation (a node's GcEvents), so queueing copies no
/// shared name, and a temporary EventType does not compile.
class Outbox {
 public:
  void trigger(const EventType& ev, Message msg) {
    entries_.push_back({&ev, std::move(msg), Mode::kOne});
  }
  void trigger_all(const EventType& ev, Message msg) {
    entries_.push_back({&ev, std::move(msg), Mode::kAll});
  }
  void async_trigger_all(const EventType& ev, Message msg) {
    entries_.push_back({&ev, std::move(msg), Mode::kAsyncAll});
  }
  void trigger(EventType&&, Message) = delete;
  void trigger_all(EventType&&, Message) = delete;
  void async_trigger_all(EventType&&, Message) = delete;

  /// Emit everything in queueing order. Call WITHOUT holding the guard.
  void flush(Context& ctx) {
    for (auto& e : entries_) {
      switch (e.mode) {
        case Mode::kOne:
          ctx.trigger(*e.ev, std::move(e.msg));
          break;
        case Mode::kAll:
          ctx.trigger_all(*e.ev, std::move(e.msg));
          break;
        case Mode::kAsyncAll:
          ctx.async_trigger_all(*e.ev, std::move(e.msg));
          break;
      }
    }
    entries_.clear();
  }

 private:
  enum class Mode { kOne, kAll, kAsyncAll };
  struct Entry {
    const EventType* ev;
    Message msg;
    Mode mode;
  };
  std::vector<Entry> entries_;
};

namespace detail {
/// The payload type a handler body takes: `void` for `(Outbox&)`, T for
/// `(Outbox&, const T&)`.
template <typename Call>
struct BodyPayload;
template <typename Body>
struct BodyPayload<void (Body::*)(Outbox&) const> {
  using type = void;
};
template <typename Body, typename T>
struct BodyPayload<void (Body::*)(Outbox&, const T&) const> {
  using type = T;
};
}  // namespace detail

class GcMicroprotocol : public Microprotocol {
 protected:
  GcMicroprotocol(std::string name, const GcOptions& opts, const GcEvents& events)
      : Microprotocol(std::move(name)), opts_(opts), events_(events) {}

  /// Register handler `name` running `body` under this microprotocol's
  /// rule: unpack the payload, run the body under guard(), then flush its
  /// Outbox with the guard released. A body that throws flushes nothing.
  /// The body captures only `this`, so the one HandlerFn that holds it
  /// stores it inline.
  template <typename Body>
  const Handler* handle(std::string name, Body body) {
    static_assert(sizeof(Body) <= sizeof(void*), "a handler body captures only `this`");
    using Payload = typename detail::BodyPayload<decltype(&Body::operator())>::type;
    return &register_handler(
        std::move(name), [this, body](Context& ctx, [[maybe_unused]] const Message& m) {
          Outbox out;
          {
            auto lock = guard();
            if constexpr (std::is_void_v<Payload>) {
              body(out);
            } else {
              body(out, m.as<Payload>());
            }
          }
          out.flush(ctx);
        });
  }

  /// Lock for this microprotocol's state iff manual synchronisation is on.
  /// Only a handler registered outside handle() takes it itself.
  std::unique_lock<std::mutex> guard() {
    if (opts_.manual_locks) return std::unique_lock(mu_);
    return std::unique_lock<std::mutex>();
  }

  const GcOptions& options() const { return opts_; }
  /// The node's event vocabulary, which bodies queue their triggers on.
  const GcEvents& events() const { return events_; }

 private:
  const GcOptions& opts_;
  const GcEvents& events_;
  std::mutex mu_;
};

}  // namespace samoa::gc
