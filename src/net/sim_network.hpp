// Simulated multi-site network.
//
// Substitute for the paper's "distributed machines" testbed (Section 7):
// an in-process datagram bus connecting simulated sites with configurable
// per-link latency, jitter, loss and partitions, plus site crashes. A
// packet's payload is a byte vector, as on a real wire: the network never
// looks inside it, and the group-communication stack marshals every
// message through net/codec before it enters. The network is one event
// source of its clock: packets leave the queue in arrival order and go to
// the destination site's delivery callback — which, in the
// group-communication stack, decodes the datagram and spawns an isolated
// computation, exactly the external-event path of a real deployment.
//
// Time base: all deadlines flow through an injected time::ClockSource.
// Under the default WallClock, a thread of the clock delivers packets at
// their wall-clock deadlines — what the overhead experiments need. Under a
// time::VirtualClock the network takes part in deterministic simulation:
// the clock's loop delivers packets in virtual time, one event at a time,
// with zero real sleeps.
//
// Determinism: all randomness (jitter, drops) comes from a seeded Rng, and
// every send between two sites consumes the same RNG draws for a given
// link configuration whatever the crash/partition state, so the stream
// (and hence a replay) never diverges based on fault state. A site's
// packets to itself are local, as on any host: zero latency, no loss and
// no draw. A run is reproducible given (seed, workload timing); with
// VirtualClock the timing itself is deterministic.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "time/clock.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace samoa::net {

/// One datagram: its endpoints and its bytes.
struct Packet {
  SiteId from;
  SiteId to;
  std::vector<std::uint8_t> payload;
};

struct LinkOptions {
  std::chrono::microseconds base_latency{100};
  std::chrono::microseconds jitter{0};  // uniform extra in [0, jitter]
  double drop_probability = 0.0;
};

/// Decision seam over packet delivery, for schedule exploration. When a
/// hook is installed, every delivery step where packets to more than one
/// destination are due becomes a decision point: the candidates are each
/// destination's earliest due packet, and choose() picks which of them is
/// delivered next instead of the default (deliver_at, seq) order. A
/// candidate's key is its destination site id, stable across runs of a
/// deterministic simulation, which is what makes the decisions
/// recordable and replayable. Keys are presented in each candidate's
/// natural (deliver_at, seq) order, so index 0 is exactly the default
/// choice: a hook that always picks 0 reproduces the unexplored delivery
/// order, and shrinking a trace toward all-zeros shrinks toward the
/// natural schedule. Packets to one destination keep their order: that is
/// not a choice. choose() runs with the network mutex held: it must not
/// block or re-enter the network.
///
/// Without a hook (the default), delivery follows (deliver_at, seq)
/// exactly: exploration is a strict opt-in, never a behavioural change
/// for seeded production runs.
class DeliveryHook {
 public:
  virtual ~DeliveryHook() = default;

  /// Pick an index into `keys` (size >= 2).
  virtual std::size_t choose(const std::vector<std::uint64_t>& keys) = 0;
};

class SimNetwork : private time::EventSource {
 public:
  using DeliveryFn = std::function<void(const Packet&)>;

  explicit SimNetwork(LinkOptions defaults = {}, std::uint64_t seed = 1,
                      time::ClockSource* clock = nullptr);
  /// Blocks until a running delivery callback returned; none fires
  /// afterwards.
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Register a site; `deliver` runs on the clock's thread for every
  /// packet addressed to it (it should hand off quickly, e.g. spawn an
  /// isolated computation).
  SiteId add_site(DeliveryFn deliver);

  /// Send a datagram. Unknown destinations, crashed endpoints, partitions
  /// and random drops silently discard it (UDP semantics). A packet to
  /// the sender itself is due at once and never randomly dropped. The
  /// receiver gets exactly these bytes.
  void send(SiteId from, SiteId to, std::vector<std::uint8_t> payload);

  /// Directional link override (from -> to). A site's link to itself is
  /// always local (see send): from == to throws ConfigError.
  void set_link(SiteId from, SiteId to, LinkOptions opts);

  /// Cut / heal both directions between a and b.
  void set_partitioned(SiteId a, SiteId b, bool partitioned);

  /// Cut / heal one direction only (from -> to): an asymmetric partition,
  /// the failure mode where a can still reach b but hears nothing back.
  void set_partitioned_oneway(SiteId from, SiteId to, bool partitioned);

  /// Crash a site: everything to/from it is dropped from now on.
  void crash(SiteId site);
  bool crashed(SiteId site) const;

  /// Undo crash(site): the site exchanges packets again from now on.
  /// Packets dropped while it was down stay dropped — a recovering site
  /// rejoins at the protocol layer, not by replaying the network. If the
  /// site had detach()ed, call attach() first to restore its callback.
  void recover(SiteId site);

  /// Remove a site's delivery callback. Blocks until any in-progress
  /// delivery to that site finished, so the callee can be destroyed safely
  /// afterwards. Implies crash(site).
  void detach(SiteId site);

  /// Re-register the delivery callback of an existing (detached or
  /// restarted) site. Does not clear the crashed flag — pair with
  /// recover() once the callee is ready to receive.
  void attach(SiteId site, DeliveryFn deliver);

  /// Install (or clear, with nullptr) the exploration decision seam. Must
  /// be set while the network is quiet (before traffic / between drains):
  /// every delivery step reads it.
  void set_delivery_hook(DeliveryHook* hook);

  /// Record the packet-level event stream: one line per delivery and late
  /// drop, in execution order. `store_lines` keeps the full log (replay
  /// byte-comparison); otherwise only the rolling event_hash() is
  /// maintained, without allocating (cheap enough for fleet-sized runs).
  void enable_event_log(bool store_lines = true);
  std::vector<std::string> event_log() const;
  /// FNV-1a over the recorded event lines; identical streams hash equal.
  std::uint64_t event_hash() const;

  /// Default link options applied where no set_link override exists.
  /// Mutators let a chaos plan script loss-burst windows; the RNG draw
  /// discipline (see send()) keeps replays aligned as long as the change
  /// itself happens at a deterministic virtual time.
  LinkOptions defaults() const;
  void set_defaults(LinkOptions defaults);

  /// Block until no packet is in flight AND no delivery callback is still
  /// executing. A callback may itself send(); such packets are part of the
  /// in-flight set drain() waits for.
  void drain();

  time::ClockSource& clock() { return clock_; }

  struct Stats {
    Counter sent;
    Counter delivered;
    Counter dropped;
    Counter recoveries;  // recover() calls that revived a crashed site
  };
  const Stats& stats() const { return stats_; }

 private:
  struct InFlight {
    Clock::time_point deliver_at;
    std::uint64_t seq;  // FIFO tiebreak for equal deadlines
    Packet packet;
    bool operator>(const InFlight& o) const {
      return std::tie(deliver_at, seq) > std::tie(o.deliver_at, o.seq);
    }
  };

  // time::EventSource: the earliest packet, and delivering it.
  Clock::time_point next_deadline() override;
  void fire(Clock::time_point now) override;

  const LinkOptions& link_for(SiteId from, SiteId to) const;
  /// One delivery step under an installed DeliveryHook: pop every packet
  /// due at `now`, let the hook choose among each destination's first
  /// when there are >= 2, push the others back and deliver the chosen
  /// one. Caller holds mu_ and has established that a packet is due.
  void step_explored(std::unique_lock<std::mutex>& lock, Clock::time_point now);
  /// Move the earliest packet out of the queue. Caller holds mu_.
  InFlight pop_earliest();
  /// Run the delivery protocol for a packet popped from the queue
  /// (late-crash check, callback with mu_ released, stats).
  void deliver_popped(std::unique_lock<std::mutex>& lock, InFlight item);
  void note_event(std::string_view line);

  time::ClockSource& clock_;
  LinkOptions defaults_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // a delivery finished (drain, detach)
  Rng rng_;
  std::vector<DeliveryFn> sites_;
  std::unordered_set<std::uint64_t> partitioned_;  // packed (a,b) pairs
  std::unordered_map<std::uint64_t, LinkOptions> links_;
  std::unordered_set<SiteId> crashed_;
  // Every packet in flight, earliest (deliver_at, seq) on top.
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> queue_;
  DeliveryHook* hook_ = nullptr;
  bool log_events_ = false;
  bool log_store_ = false;
  std::vector<std::string> event_log_;
  std::uint64_t event_hash_ = 1469598103934665603ull;  // FNV-1a offset basis
  SiteId delivering_;  // site whose callback is currently running
  std::uint64_t next_seq_ = 0;
  Stats stats_;
  std::unique_ptr<time::Registration> registration_;  // last: reads all of the above
};

}  // namespace samoa::net
