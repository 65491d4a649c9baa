#include "core/context.hpp"
#include "gc/group_node.hpp"

#include <stdexcept>

#include "core/errors.hpp"

namespace samoa::gc {

DeliverSink::DeliverSink(const GcOptions& opts, const GcEvents& gc_events)
    : GcMicroprotocol("app", opts, gc_events) {
  on_rdeliver_ = handle("on_rdeliver", [this](Outbox&, const AppMessage& msg) {
    // Atomic payloads are delivered via ADeliver and causal broadcasts via
    // CDeliver; the MsgId says which, whatever bytes the payload holds.
    if (!in_channel(msg.id, kPlainChannelBit)) return;
    std::unique_lock snap(mu_);
    rdelivered_.push_back(msg);
  });
  on_cdeliver_ = handle("on_cdeliver", [this](Outbox&, const std::string& payload) {
    std::unique_lock snap(mu_);
    cdelivered_.push_back(payload);
  });
  on_adeliver_ = handle("on_adeliver", [this](Outbox&, const ADelivery& del) {
    char op;
    SiteId site;
    if (Membership::decode_op(del.m.data, op, site)) return;  // membership-internal
    std::unique_lock snap(mu_);
    adelivered_.push_back(del.m);
    if (view_source_) {
      // The record's ordinal is the consensus slot that ordered the message.
      records_.push_back(verify::DeliveryRecord{del.m.id, view_source_(), del.next_ordinal - 1,
                                                del.m.data});
    }
  });
}

std::vector<AppMessage> DeliverSink::rdelivered() {
  std::unique_lock snap(mu_);
  return rdelivered_;
}

std::vector<AppMessage> DeliverSink::adelivered() {
  std::unique_lock snap(mu_);
  return adelivered_;
}

std::vector<std::string> DeliverSink::cdelivered() {
  std::unique_lock snap(mu_);
  return cdelivered_;
}

std::vector<verify::DeliveryRecord> DeliverSink::delivery_records() {
  std::unique_lock snap(mu_);
  return records_;
}

GroupNode::GroupNode(net::SimNetwork& net, GcOptions opts)
    : net_(net), opts_(std::move(opts)), timers_(opts_.clock) {
  self_ = net_.add_site([this](const net::Packet& packet) { on_packet(packet); });
  build_stack();
}

void GroupNode::build_stack() {
  // A Stack seals its bindings on first spawn, so a restart cannot reuse
  // it: each incarnation composes a brand-new stack — which is also
  // exactly the crash semantics we want, since every microprotocol comes
  // back with empty volatile state. Only the configured failure detector
  // is built: a detector nothing ticks would still widen the declarations
  // of every event that reaches a view change.
  stack_ = std::make_unique<Stack>();
  fd_ = nullptr;
  swim_ = nullptr;
  const View empty;
  transport_ = &stack_->emplace<Transport>(opts_, events_, net_, self_);
  relcomm_ = &stack_->emplace<RelComm>(opts_, events_, self_, empty);
  relcast_ = &stack_->emplace<RelCast>(opts_, events_, self_, empty);
  if (opts_.detector_impl == DetectorImpl::kSwim) {
    swim_ = &stack_->emplace<SwimDetector>(opts_, events_, self_, empty);
  } else {
    fd_ = &stack_->emplace<FailureDetector>(opts_, events_, self_, empty, *transport_);
  }
  consensus_ = &stack_->emplace<Consensus>(opts_, events_, self_, empty);
  abcast_ = &stack_->emplace<ABcast>(opts_, events_, self_, empty);
  causal_ = &stack_->emplace<CausalCast>(opts_, events_, self_, empty);
  membership_ = &stack_->emplace<Membership>(opts_, events_, self_, empty);
  sink_ = &stack_->emplace<DeliverSink>(opts_, events_);

  // ABcast's frontier mirror is atomic, so consensus may poll it from the
  // retry tick without taking ABcast's guard (no lock-order coupling).
  // Transport reads it the same way to stamp it on every packet, and
  // consensus polls the highest frontier a peer's packet reported likewise.
  const auto frontier = [ab = abcast_] { return ab->next_instance(); };
  consensus_->set_frontier_source(frontier);
  transport_->set_frontier_source(frontier);
  consensus_->set_peer_frontier_source([t = transport_] { return t->peer_frontier(); });

  bind_all();
  triggers_ = declare_triggers();
  const EventType* roots[] = {
      &events_.rc_data,        &events_.rc_ack,          &events_.swim_wire,
      &events_.cs_wire,        &events_.view_install,    &events_.retransmit_tick,
      &events_.heartbeat_tick, &events_.fd_check_tick,   &events_.swim_tick,
      &events_.cs_retry_tick,  &events_.api_abcast,      &events_.api_rbcast,
      &events_.api_ccast,      &events_.api_joinleave,
  };
  declarations_ = std::vector<RootDeclaration>(std::size(roots));
  for (std::size_t i = 0; i < std::size(roots); ++i) declarations_[i].root = roots[i];

  RuntimeOptions rt_opts;
  rt_opts.policy = opts_.policy;
  rt_opts.record_trace = opts_.record_trace;
  rt_opts.clock = opts_.clock;
  runtime_ = std::make_unique<Runtime>(*stack_, rt_opts);
}

GroupNode::~GroupNode() {
  timers_.cancel_all();
  net_.detach(self_);  // no further delivery callbacks after this returns
  // runtime_ destructor drains in-flight computations.
}

void GroupNode::bind_all() {
  // External events.
  stack_->bind(events_.rc_data, *relcomm_->recv_data_handler());
  stack_->bind(events_.rc_ack, *relcomm_->recv_ack_handler());
  if (fd_ != nullptr) {
    stack_->bind(events_.heartbeat_tick, *fd_->send_heartbeats_handler());
    stack_->bind(events_.fd_check_tick, *fd_->check_handler());
  }
  if (swim_ != nullptr) {
    stack_->bind(events_.swim_wire, *swim_->on_wire_handler());
    stack_->bind(events_.swim_tick, *swim_->tick_handler());
  }
  stack_->bind(events_.cs_wire, *consensus_->on_wire_handler());
  stack_->bind(events_.view_install, *membership_->on_install_handler());
  stack_->bind(events_.retransmit_tick, *relcomm_->retransmit_handler());
  stack_->bind(events_.cs_retry_tick, *consensus_->retry_handler());
  stack_->bind(events_.api_abcast, *abcast_->submit_handler());
  stack_->bind(events_.api_rbcast, *relcast_->bcast_handler());
  stack_->bind(events_.api_ccast, *causal_->submit_handler());
  stack_->bind(events_.api_joinleave, *membership_->joinleave_handler());

  // Internal plumbing.
  stack_->bind(events_.send_out, *relcomm_->send_handler());
  stack_->bind(events_.from_rcomm, *relcast_->recv_handler());
  stack_->bind(events_.bcast, *relcast_->bcast_handler());
  stack_->bind(events_.deliver_out, *abcast_->on_rdeliver_handler());
  stack_->bind(events_.deliver_out, *causal_->on_rdeliver_handler());
  stack_->bind(events_.deliver_out, *sink_->on_rdeliver_handler());
  stack_->bind(events_.adeliver, *membership_->on_adeliver_handler());
  stack_->bind(events_.adeliver, *sink_->on_adeliver_handler());
  stack_->bind(events_.causal_deliver, *sink_->on_cdeliver_handler());
  // ViewChange binding order is load-bearing for the Section 3 experiment:
  // RelCast adopts the new view first, RelComm (optionally delayed) last —
  // exactly the window in which an unsynchronised message computation sees
  // inconsistent views.
  stack_->bind(events_.view_change, *relcast_->view_change_handler());
  stack_->bind(events_.view_change, *relcomm_->view_change_handler());
  stack_->bind(events_.view_change, swim_ != nullptr ? *swim_->view_change_handler()
                                                     : *fd_->view_change_handler());
  stack_->bind(events_.view_change, *consensus_->view_change_handler());
  stack_->bind(events_.view_change, *abcast_->view_change_handler());
  stack_->bind(events_.view_change, *causal_->view_change_handler());
  stack_->bind(events_.suspect, *consensus_->on_suspect_handler());
  stack_->bind(events_.cs_propose, *consensus_->propose_handler());
  stack_->bind(events_.cs_decided, *abcast_->on_decide_handler());
  stack_->bind(events_.membership_abcast, *abcast_->submit_handler());
  stack_->bind(events_.abcast_catchup, *abcast_->on_catchup_handler());
  stack_->bind(events_.transport_send, *transport_->send_handler());

  sink_->set_view_source([mb = membership_] { return mb->view_snapshot().id(); });
}

TriggerDeclarations GroupNode::declare_triggers() const {
  // What each handler's body (helpers included) may trigger, as written.
  // Inference follows these over the bindings, so a missing entry makes
  // the declaration too narrow and the undeclared call throws
  // IsolationError (counted in Runtime::Stats::failed). Handlers not
  // listed are leaves: Transport::send, every viewChange and the sink.
  const GcEvents& ev = events_;
  TriggerDeclarations d;
  d.declare(*relcomm_->send_handler(), ev.transport_send)
      .declare(*relcomm_->recv_data_handler(), {ev.transport_send, ev.from_rcomm})
      .declare(*relcomm_->recv_ack_handler(), ev.transport_send)
      .declare(*relcomm_->retransmit_handler(), ev.transport_send)
      .declare(*relcast_->bcast_handler(), ev.send_out)
      .declare(*relcast_->recv_handler(), {ev.send_out, ev.deliver_out})
      .declare(*consensus_->propose_handler(), ev.transport_send)
      .declare(*consensus_->on_wire_handler(), {ev.transport_send, ev.cs_decided})
      .declare(*consensus_->on_suspect_handler(), ev.transport_send)
      .declare(*consensus_->retry_handler(), ev.transport_send)
      .declare(*abcast_->submit_handler(), {ev.bcast, ev.cs_propose})
      .declare(*abcast_->on_rdeliver_handler(), ev.cs_propose)
      .declare(*abcast_->on_decide_handler(), {ev.adeliver, ev.cs_propose})
      .declare(*abcast_->on_catchup_handler(), ev.cs_propose)
      .declare(*causal_->submit_handler(), {ev.causal_deliver, ev.bcast})
      .declare(*causal_->on_rdeliver_handler(), ev.causal_deliver)
      .declare(*membership_->joinleave_handler(), ev.membership_abcast)
      .declare(*membership_->on_adeliver_handler(), {ev.view_change, ev.transport_send})
      .declare(*membership_->on_install_handler(), {ev.view_change, ev.abcast_catchup});
  if (fd_ != nullptr) {
    d.declare(*fd_->send_heartbeats_handler(), ev.transport_send)
        .declare(*fd_->check_handler(), ev.suspect);
  }
  if (swim_ != nullptr) {
    d.declare(*swim_->on_wire_handler(), {ev.transport_send, ev.suspect})
        .declare(*swim_->tick_handler(), {ev.transport_send, ev.suspect});
  }
  return d;
}

const Isolation& GroupNode::declaration(const EventType& root) const {
  for (RootDeclaration& d : declarations_) {
    if (d.root != &root) continue;
    std::call_once(d.inferred, [&] {
      if (stack_->bound_handlers(root.id()).empty()) return;  // its implementation is not built
      Isolation members = infer_members(*stack_, triggers_, {root});
      if (opts_.policy != CCPolicy::kVCABound) {
        d.declaration = std::move(members);
        return;
      }
      std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds;
      for (MicroprotocolId mp : members.members()) {
        bounds.emplace_back(stack_->find(mp), kVcaBound);
      }
      d.declaration = Isolation::bound(std::move(bounds));
    });
    if (d.declaration) return *d.declaration;
    break;
  }
  throw ConfigError("GroupNode: no handler of this node's stack is bound to '" + root.name() + "'");
}

ComputationHandle GroupNode::spawn(const EventType& root, Message msg) {
  // `root` is a member of events_, which outlives the runtime and so every
  // computation it runs.
  return runtime_->spawn_isolated(declaration(root), [&root, msg = std::move(msg)](Context& ctx) {
    ctx.trigger(root, msg);
  });
}

void GroupNode::on_packet(const net::Packet& packet) {
  if (!started_.load(std::memory_order_acquire) || crashed_.load(std::memory_order_acquire)) {
    return;
  }
  FromWire fw;
  try {
    fw = net::decode_wire(packet.payload);
  } catch (const net::CodecError&) {
    // A datagram that does not decode is dropped like a lost one (UDP
    // semantics): counted, and no computation runs.
    malformed_packets_.add();
    return;
  }
  const EventType* root = std::visit(
      [this](const auto& body) -> const EventType* {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, RcData>) return &events_.rc_data;
        if constexpr (std::is_same_v<T, RcAck>) return &events_.rc_ack;
        // A heartbeat's arrival, recorded below, is all it tells.
        if constexpr (std::is_same_v<T, FdHeartbeat>) return nullptr;
        if constexpr (std::is_same_v<T, SwimPing> || std::is_same_v<T, SwimAck> ||
                      std::is_same_v<T, SwimPingReq>) {
          return &events_.swim_wire;
        }
        if constexpr (std::is_same_v<T, ViewInstall>) return &events_.view_install;
        return &events_.cs_wire;
      },
      fw.wire);
  // Only the built detector's packets are taken: a heartbeat at a SWIM
  // node, or a SWIM message at a heartbeat node, is dropped and counted
  // like a datagram that does not decode.
  if (root == nullptr ? fd_ == nullptr : (root == &events_.swim_wire && swim_ == nullptr)) {
    malformed_packets_.add();
    return;
  }
  // Every packet's header tells its sender's frontier, and its arrival
  // that the sender is alive. Both are recorded here, outside any
  // computation, so no event's declaration widens.
  transport_->note_peer_frontier(fw.frontier);
  if (fd_ != nullptr) fd_->heard_from(fw.from);
  if (root != nullptr) spawn(*root, Message::of(std::move(fw)));
}

void GroupNode::start(View initial_view) {
  if (started_.exchange(true)) throw ConfigError("GroupNode::start called twice");
  if (initial_view.id() == 0) {
    throw ConfigError("initial view must have id >= 1 (id 0 is the empty pre-start view)");
  }
  if (opts_.policy == CCPolicy::kVCARoute) {
    throw ConfigError(
        "GroupNode does not support VCAroute: the stack's call patterns are "
        "data-dependent (the paper notes the variants' use is limited when "
        "routing cannot be declared statically)");
  }
  // Install the initial view through the regular ViewInstall path so every
  // microprotocol learns it inside one isolated computation.
  const FromWire fw{self_, Wire{ViewInstall{initial_view.id(), initial_view.members()}}};
  spawn(events_.view_install, Message::of(fw)).wait();

  arm_timers();
}

void GroupNode::spawn_tick(std::size_t slot, const EventType& root) {
  if (crashed_.load(std::memory_order_acquire)) return;
  std::unique_lock lock(tick_mu_);
  ComputationHandle& prev = last_tick_[slot];
  if (prev.valid() && !prev.done()) {
    ticks_coalesced_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  prev = spawn(root, Message{});
}

void GroupNode::arm_timers() {
  timers_.schedule_periodic(opts_.retransmit_interval, [this] {
    spawn_tick(0, events_.retransmit_tick);
  });
  // Only the selected failure detector is built, and only its ticks run.
  if (fd_ != nullptr) {
    timers_.schedule_periodic(opts_.heartbeat_interval, [this] {
      spawn_tick(1, events_.heartbeat_tick);
    });
    timers_.schedule_periodic(opts_.fd_timeout, [this] {
      spawn_tick(2, events_.fd_check_tick);
    });
  } else {
    // The SWIM tick runs at the ack-timeout resolution: the state machine
    // (direct deadline, period deadline, suspicion expiry) is time-
    // compared inside the handler, so one fast tick drives all of it.
    timers_.schedule_periodic(opts_.swim_ack_timeout, [this] {
      spawn_tick(4, events_.swim_tick);
    });
  }
  timers_.schedule_periodic(opts_.cs_retry_interval, [this] {
    spawn_tick(3, events_.cs_retry_tick);
  });
}

void GroupNode::crash() {
  crashed_.store(true, std::memory_order_release);
  timers_.cancel_all();
  net_.crash(self_);
}

void GroupNode::archive_incarnation() {
  IncarnationArchive arc;
  arc.records = sink_->delivery_records();
  arc.adelivered = sink_->adelivered();
  arc.views = membership_->installed_views();
  arc.retransmissions = relcomm_->retransmissions();
  arc.view_change_drops = relcomm_->view_change_drops();
  arc.joins_completed = membership_->joins_completed();
  arc.failed_computations = runtime_->stats().failed.value();
  std::unique_lock lock(archive_mu_);
  archives_.push_back(std::move(arc));
}

void GroupNode::restart() {
  if (!started_.load(std::memory_order_acquire)) {
    throw ConfigError("GroupNode::restart: node was never started");
  }
  if (!crashed_.load(std::memory_order_acquire)) {
    throw ConfigError("GroupNode::restart: node is not crashed");
  }
  // crash() already cancelled the timers and marked the site crashed;
  // detach additionally waits out any delivery callback still executing,
  // so after drain() nothing can reach the old stack any more.
  net_.detach(self_);
  runtime_->drain();
  archive_incarnation();
  runtime_.reset();  // destroy the runtime before the stack it runs on
  ++opts_.id_epoch;  // new incarnation: fresh MsgId subspace (see wire.hpp)
  rb_seq_.store(0, std::memory_order_relaxed);
  build_stack();
  net_.attach(self_, [this](const net::Packet& packet) { on_packet(packet); });
  crashed_.store(false, std::memory_order_release);
  net_.recover(self_);
  arm_timers();
}

std::vector<GroupNode::IncarnationArchive> GroupNode::archives() const {
  std::unique_lock lock(archive_mu_);
  return archives_;
}

std::uint64_t GroupNode::rejoins_completed() const {
  std::uint64_t total = membership_->joins_completed();
  std::unique_lock lock(archive_mu_);
  for (const auto& arc : archives_) total += arc.joins_completed;
  return total;
}

std::uint64_t GroupNode::total_retransmissions() const {
  std::uint64_t total = relcomm_->retransmissions();
  std::unique_lock lock(archive_mu_);
  for (const auto& arc : archives_) total += arc.retransmissions;
  return total;
}

std::uint64_t GroupNode::total_failed_computations() const {
  std::uint64_t total = runtime_->stats().failed.value();
  std::unique_lock lock(archive_mu_);
  for (const auto& arc : archives_) total += arc.failed_computations;
  return total;
}

std::vector<verify::IncarnationTrace> GroupNode::vs_traces() const {
  std::vector<verify::IncarnationTrace> traces;
  {
    std::unique_lock lock(archive_mu_);
    for (std::size_t i = 0; i < archives_.size(); ++i) {
      verify::IncarnationTrace t;
      t.site = self_;
      t.incarnation = i;
      t.crashed = true;  // only restart() archives, and it requires a crash
      t.deliveries = archives_[i].records;
      t.views = archives_[i].views;
      traces.push_back(std::move(t));
    }
  }
  verify::IncarnationTrace cur;
  cur.site = self_;
  cur.incarnation = opts_.id_epoch;
  cur.crashed = crashed_.load(std::memory_order_acquire);
  cur.deliveries = sink_->delivery_records();
  cur.views = membership_->installed_views();
  traces.push_back(std::move(cur));
  return traces;
}

ComputationHandle GroupNode::rbcast(std::string data) {
  // Plain reliable broadcasts draw ids from a separate subspace (high bit
  // of the per-origin sequence) so they never collide with ABcast ids.
  const std::uint64_t seq = kPlainChannelBit | epoch_bits(opts_.id_epoch) | ++rb_seq_;
  AppMessage msg{make_msg_id(self_, seq), std::move(data)};
  return spawn(events_.api_rbcast, Message::of(msg));
}

ComputationHandle GroupNode::abcast(std::string data) {
  char op;
  SiteId site;
  if (Membership::decode_op(data, op, site)) {
    throw std::invalid_argument("GroupNode::abcast: '" + data +
                                "' is reserved for view operations (use request_join / "
                                "request_leave)");
  }
  return spawn(events_.api_abcast, Message::of(std::move(data)));
}

ComputationHandle GroupNode::ccast(std::string data) {
  return spawn(events_.api_ccast, Message::of(std::move(data)));
}

ComputationHandle GroupNode::request_join(SiteId newcomer) {
  return spawn(events_.api_joinleave, Message::of(JoinLeave{'+', newcomer}));
}

ComputationHandle GroupNode::request_leave(SiteId member) {
  return spawn(events_.api_joinleave, Message::of(JoinLeave{'-', member}));
}

}  // namespace samoa::gc
