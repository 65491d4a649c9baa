// GroupNode — one site's complete group-communication stack.
//
// Owns the Stack (Transport, RelComm, RelCast, the selected failure
// detector, Consensus, ABcast, CausalCast, Membership, a delivery sink),
// its Runtime with the chosen concurrency-control policy, and a
// TimerService; registers with the SimNetwork and turns every network
// packet and timer tick into an `isolated` computation. A packet arrives
// as bytes and is decoded first (net::decode_wire); one that does not
// decode, or whose kind the built stack has no handler for, is dropped. A
// plain heartbeat is the exception: every packet's arrival and header are
// recorded outside the computations (on_packet), and that is all a plain
// heartbeat tells.
//
// Declarations are inferred, not hand-written (paper Section 4: M "could
// be inferred statically"): one TriggerDeclarations table lists the events
// each handler's body may trigger, and each root event's member set is
// derived once per incarnation, on its first spawn, with infer_members
// over the live bindings. A root event therefore declares exactly the
// microprotocols its handlers can reach in the configured stack.
//
// Design note: computations never block on remote events — all sends are
// fire-and-forget and every response arrives as a *new* external event, so
// version gates are strictly per-site and the paper's deadlock-freedom
// argument carries over to the distributed setting unchanged.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/infer.hpp"
#include "core/runtime.hpp"
#include "gc/abcast.hpp"
#include "gc/causal_cast.hpp"
#include "gc/consensus.hpp"
#include "gc/events.hpp"
#include "gc/failure_detector.hpp"
#include "gc/gc_options.hpp"
#include "gc/membership.hpp"
#include "gc/rel_cast.hpp"
#include "gc/rel_comm.hpp"
#include "gc/swim.hpp"
#include "gc/transport.hpp"
#include "net/sim_network.hpp"
#include "net/timer_service.hpp"
#include "verify/vs_checker.hpp"

namespace samoa::gc {

/// Terminal microprotocol recording what the "application module" saw.
class DeliverSink : public GcMicroprotocol {
 public:
  DeliverSink(const GcOptions& opts, const GcEvents& events);

  const Handler* on_rdeliver_handler() const { return on_rdeliver_; }
  const Handler* on_adeliver_handler() const { return on_adeliver_; }
  const Handler* on_cdeliver_handler() const { return on_cdeliver_; }

  /// Plain reliable-broadcast deliveries (unordered): neither atomic
  /// payloads nor causal broadcasts, which arrive through their own
  /// delivery events.
  std::vector<AppMessage> rdelivered();
  /// Atomic-broadcast deliveries, in total order, membership ops filtered.
  std::vector<AppMessage> adelivered();
  /// Causal-broadcast deliveries, in causal order.
  std::vector<std::string> cdelivered();

  /// Provider of the current view id stamped on delivery records (wired
  /// by GroupNode to the membership view; unset disables recording).
  void set_view_source(std::function<std::uint64_t()> source) {
    view_source_ = std::move(source);
  }
  /// Atomic deliveries annotated with view + consensus slot, for the
  /// virtual-synchrony checker.
  std::vector<verify::DeliveryRecord> delivery_records();

 private:
  mutable std::mutex mu_;
  std::vector<AppMessage> rdelivered_;
  std::vector<AppMessage> adelivered_;
  std::vector<std::string> cdelivered_;
  std::vector<verify::DeliveryRecord> records_;
  std::function<std::uint64_t()> view_source_;
  const Handler* on_rdeliver_ = nullptr;
  const Handler* on_adeliver_ = nullptr;
  const Handler* on_cdeliver_ = nullptr;
};

class GroupNode {
 public:
  /// Least-upper-bound declared for every microprotocol when the policy is
  /// VCAbound (generous over-declaration is legal; too small throws).
  static constexpr std::uint32_t kVcaBound = 256;

  /// Registers a site with `net`; the node's id is allocated there.
  GroupNode(net::SimNetwork& net, GcOptions opts);
  ~GroupNode();

  GroupNode(const GroupNode&) = delete;
  GroupNode& operator=(const GroupNode&) = delete;

  SiteId id() const { return self_; }

  /// Install the initial view and arm the periodic timers. Call exactly
  /// once, after every node of the experiment has been constructed.
  void start(View initial_view);

  /// Stop timers and detach from the network (simulated crash).
  void crash();

  /// Restart a crashed node as a fresh incarnation: the previous
  /// incarnation's trace is archived, every microprotocol is rebuilt from
  /// scratch (volatile state wiped — a crash loses everything), the
  /// MsgId epoch is bumped, and the site re-attaches to the network with
  /// timers re-armed. The node is NOT a group member afterwards: a current
  /// member must `request_join(id())` so the membership/state-transfer
  /// path installs a view (with its ordering catch-up floor) on it.
  void restart();

  /// One finished lifetime of this node (archived by restart()).
  struct IncarnationArchive {
    std::vector<verify::DeliveryRecord> records;
    std::vector<AppMessage> adelivered;
    std::vector<View> views;
    std::uint64_t retransmissions = 0;
    std::uint64_t view_change_drops = 0;
    std::uint64_t joins_completed = 0;
    std::uint64_t failed_computations = 0;
  };
  std::vector<IncarnationArchive> archives() const;

  /// Incarnation number of the current lifetime (0 before any restart).
  std::uint64_t incarnation() const { return opts_.id_epoch; }

  /// Joins completed through the ViewInstall state-transfer path, summed
  /// over all incarnations — for a node started in the initial view this
  /// counts exactly its completed re-joins after crashes.
  std::uint64_t rejoins_completed() const;

  /// Retransmissions summed over all incarnations.
  std::uint64_t total_retransmissions() const;

  /// Every lifetime of this node as checker input: all archived
  /// incarnations (ended by a crash) plus the current one.
  std::vector<verify::IncarnationTrace> vs_traces() const;

  // --- Application API (each call is one external event) ---
  ComputationHandle rbcast(std::string data);
  /// Atomic broadcast. Payloads Membership::decode_op accepts ("!view"
  /// followed by '+' or '-' and a site id) are reserved for view
  /// operations, which share the total order: such a payload throws
  /// std::invalid_argument instead of changing the view.
  ComputationHandle abcast(std::string data);
  ComputationHandle ccast(std::string data);  // causal-order broadcast
  ComputationHandle request_join(SiteId newcomer);
  ComputationHandle request_leave(SiteId member);

  // --- Introspection ---
  Runtime& runtime() { return *runtime_; }
  const Stack& stack() const { return *stack_; }
  DeliverSink& sink() { return *sink_; }
  Membership& membership() { return *membership_; }
  RelComm& rel_comm() { return *relcomm_; }
  RelCast& rel_cast() { return *relcast_; }
  ABcast& ab() { return *abcast_; }
  CausalCast& causal() { return *causal_; }
  Consensus& consensus() { return *consensus_; }
  /// The failure detectors only the matching option builds; each throws
  /// ConfigError on a node configured with the other one.
  FailureDetector& fd() { return built(fd_, "FailureDetector (detector_impl kHeartbeat)"); }
  SwimDetector& swim() { return built(swim_, "SwimDetector (detector_impl kSwim)"); }
  /// The failure detector selected by GcOptions::detector_impl, behind
  /// the common seam (harnesses compare detectors through this).
  Detector& detector() {
    return swim_ != nullptr ? static_cast<Detector&>(*swim_) : static_cast<Detector&>(*fd_);
  }
  Transport& transport() { return *transport_; }
  const GcEvents& events() const { return events_; }
  const GcOptions& options() const { return opts_; }

  /// The declaration a computation spawned by external event `root`
  /// (one of the network, timer or API events of events()) runs under in
  /// the current incarnation, inferred on first use. Throws ConfigError if
  /// no handler of the built stack is bound to `root`.
  const Isolation& declaration(const EventType& root) const;

  /// Computations that completed with a recorded error (see
  /// Runtime::Stats::failed), summed over all incarnations.
  std::uint64_t total_failed_computations() const;

  /// Stop the periodic timers (retransmit / detector / consensus retry). Needed before drain(): with timers armed, new computations
  /// keep arriving and the runtime never becomes idle.
  void stop_timers() { timers_.cancel_all(); }

  /// Wait until this node has no in-flight computations. Call
  /// stop_timers() first if the node should actually become idle.
  void drain() { runtime_->drain(); }

  /// Datagrams dropped because they did not decode (net::CodecError), or
  /// carry a kind this node's stack has no handler for (the other failure
  /// detector's packets), summed over all incarnations.
  std::uint64_t malformed_packets() const { return malformed_packets_.value(); }

  /// Periodic tick computations skipped because the previous tick of the
  /// same class had not completed (see spawn_tick).
  std::uint64_t ticks_coalesced() const {
    return ticks_coalesced_.load(std::memory_order_relaxed);
  }

 private:
  template <typename T>
  static T& built(T* mp, const char* what) {
    if (mp == nullptr) {
      throw ConfigError(std::string("GroupNode: this node was not built with ") + what);
    }
    return *mp;
  }

  ComputationHandle spawn(const EventType& root, Message msg);
  /// Spawn a periodic tick computation unless the previous tick of the
  /// same class is still in flight (tick coalescing). A stalled stack —
  /// e.g. a view change blocking head-of-line — would otherwise accumulate
  /// one blocked computation per interval, unboundedly growing the thread
  /// pool; a tick re-run on the next interval observes the same state, so
  /// skipping loses nothing.
  void spawn_tick(std::size_t slot, const EventType& root);
  void on_packet(const net::Packet& packet);
  void build_stack();
  void bind_all();
  /// Every event each built handler's body may trigger — the one table
  /// inference walks.
  TriggerDeclarations declare_triggers() const;
  void arm_timers();
  void archive_incarnation();

  net::SimNetwork& net_;
  GcOptions opts_;
  GcEvents events_;
  SiteId self_;

  std::unique_ptr<Stack> stack_;
  Transport* transport_ = nullptr;
  RelComm* relcomm_ = nullptr;
  RelCast* relcast_ = nullptr;
  FailureDetector* fd_ = nullptr;
  SwimDetector* swim_ = nullptr;
  Consensus* consensus_ = nullptr;
  ABcast* abcast_ = nullptr;
  CausalCast* causal_ = nullptr;
  Membership* membership_ = nullptr;
  DeliverSink* sink_ = nullptr;
  /// One external event (network packet, timer tick, API call) and the
  /// declaration its computations run under in this incarnation, inferred
  /// on the root's first spawn — set-up spawns only the view install.
  struct RootDeclaration {
    const EventType* root = nullptr;
    std::once_flag inferred;
    std::optional<Isolation> declaration;  // stays empty if no built handler takes `root`
  };
  TriggerDeclarations triggers_;  // this incarnation's table
  /// One entry per root event of events_, looked up linearly.
  mutable std::vector<RootDeclaration> declarations_;

  std::unique_ptr<Runtime> runtime_;
  // Tick-coalescing state is used by timer callbacks, so it must be
  // declared before timers_: the TimerService destructor waits out a
  // running callback, and anything declared after it would be destroyed
  // while a callback can still be running.
  std::mutex tick_mu_;
  // One slot per tick class: retransmit, the built detector's, retry.
  std::array<ComputationHandle, 3> last_tick_;
  std::atomic<std::uint64_t> ticks_coalesced_{0};
  net::TimerService timers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint64_t> rb_seq_{0};
  Counter malformed_packets_;
  std::vector<IncarnationArchive> archives_;
  mutable std::mutex archive_mu_;
};

}  // namespace samoa::gc
