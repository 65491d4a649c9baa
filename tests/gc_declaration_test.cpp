// GroupNode composition and declaration inference: a node builds only the
// configured failure detector, and every root event (network packet,
// timer tick, API call) runs under the member set inferred from the
// handlers' declared triggers over the live bindings. The tables below
// pin those member sets for the SWIM and heartbeat configurations; a
// change to a handler's triggers or to the bindings must show up here as
// a deliberate edit.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gc/group_node.hpp"

namespace samoa::gc {
namespace {

using Names = std::set<std::string>;

Names stack_names(const GroupNode& node) {
  Names names;
  for (const auto& mp : node.stack().microprotocols()) names.insert(mp->name());
  return names;
}

Names declared_names(const GroupNode& node, const EventType& root) {
  Names names;
  for (MicroprotocolId mp : node.declaration(root).members()) {
    names.insert(node.stack().find(mp)->name());
  }
  return names;
}

/// (root event, expected member names); an empty set means no handler of
/// the configured stack is bound to the root, so declaration() throws.
using Table = std::vector<std::pair<const EventType*, Names>>;

void expect_declarations(const GroupNode& node, const Table& table) {
  for (const auto& [root, want] : table) {
    if (want.empty()) {
      EXPECT_THROW(node.declaration(*root), ConfigError) << root->name();
    } else {
      EXPECT_EQ(declared_names(node, *root), want) << root->name();
    }
  }
}

GcOptions with(DetectorImpl detector) {
  GcOptions opts;
  opts.detector_impl = detector;
  return opts;
}

TEST(GcDeclaration, ConsensusSwimStackHoldsNoHeartbeatDetector) {
  net::SimNetwork net;
  GroupNode node(net, with(DetectorImpl::kSwim));
  EXPECT_EQ(stack_names(node), (Names{"transport", "relcomm", "relcast", "swim", "consensus",
                                      "abcast", "causal", "membership", "app"}));
}

TEST(GcDeclaration, HeartbeatStackHoldsNoSwimDetector) {
  net::SimNetwork net;
  GroupNode node(net, with(DetectorImpl::kHeartbeat));
  EXPECT_EQ(stack_names(node), (Names{"transport", "relcomm", "relcast", "fd", "consensus",
                                      "abcast", "causal", "membership", "app"}));
}

TEST(GcDeclaration, HeartbeatDetectorTakesNoPacket) {
  // A heartbeat packet spawns no computation: GroupNode::on_packet records
  // every packet's liveness and frontier itself. So the detector binds no
  // network event and no root declares it for a received heartbeat; it
  // handles its two ticks and view changes only.
  net::SimNetwork net;
  GroupNode node(net, with(DetectorImpl::kHeartbeat));
  Names handlers;
  for (const auto& h : node.fd().handlers()) handlers.insert(h->name());
  EXPECT_EQ(handlers, (Names{"send_heartbeats", "check", "viewChange"}));
}

TEST(GcDeclaration, UnbuiltImplementationAccessorsThrow) {
  net::SimNetwork net;
  GroupNode swim_node(net, with(DetectorImpl::kSwim));
  EXPECT_THROW(swim_node.fd(), ConfigError);
  EXPECT_NO_THROW(swim_node.swim());
  EXPECT_EQ(&swim_node.detector(), static_cast<Detector*>(&swim_node.swim()));

  GroupNode hb_node(net, with(DetectorImpl::kHeartbeat));
  EXPECT_THROW(hb_node.swim(), ConfigError);
  EXPECT_NO_THROW(hb_node.fd());
}

TEST(GcDeclaration, SwimConsensusMembersPerRootEvent) {
  net::SimNetwork net;
  GroupNode node(net, with(DetectorImpl::kSwim));
  const GcEvents& ev = node.events();
  // A data packet reaches the consensus proposal and causal delivery but,
  // with consensus ordering, never the membership cascade: 7 of 9.
  const Names data{"transport", "relcomm", "relcast", "abcast", "consensus", "causal", "app"};
  // A consensus message can decide, deliver a view operation and so
  // install a view on every microprotocol: all 9.
  const Names cs{"transport", "relcomm", "relcast", "swim",       "consensus",
                 "abcast",    "causal",  "app",     "membership"};
  const Names install{"transport", "relcomm", "relcast",   "swim",
                      "consensus", "abcast",  "causal",    "membership"};
  expect_declarations(
      node, {{&ev.rc_data, data},
             {&ev.rc_ack, {"relcomm", "transport"}},
             {&ev.swim_wire, {"swim", "transport", "consensus"}},
             {&ev.cs_wire, cs},
             {&ev.view_install, install},
             {&ev.retransmit_tick, {"relcomm", "transport"}},
             {&ev.heartbeat_tick, {}},
             {&ev.fd_check_tick, {}},
             {&ev.swim_tick, {"swim", "transport", "consensus"}},
             {&ev.cs_retry_tick, {"consensus", "transport"}},
             {&ev.api_abcast, {"abcast", "relcast", "relcomm", "transport", "consensus"}},
             {&ev.api_rbcast, {"relcast", "relcomm", "transport"}},
             {&ev.api_ccast, {"causal", "app", "relcast", "relcomm", "transport"}},
             {&ev.api_joinleave,
              {"membership", "abcast", "relcast", "relcomm", "transport", "consensus"}}});
}

TEST(GcDeclaration, HeartbeatConsensusMembersPerRootEvent) {
  net::SimNetwork net;
  GroupNode node(net, with(DetectorImpl::kHeartbeat));
  const GcEvents& ev = node.events();
  const Names data{"transport", "relcomm", "relcast", "abcast", "consensus", "causal", "app"};
  const Names cs{"transport", "relcomm", "relcast", "fd",  "consensus",
                 "abcast",    "causal",  "app",     "membership"};
  const Names install{"transport", "relcomm", "relcast", "fd",
                      "consensus", "abcast",  "causal",  "membership"};
  expect_declarations(
      node, {{&ev.rc_data, data},
             {&ev.rc_ack, {"relcomm", "transport"}},
             {&ev.swim_wire, {}},
             {&ev.cs_wire, cs},
             {&ev.view_install, install},
             {&ev.retransmit_tick, {"relcomm", "transport"}},
             {&ev.heartbeat_tick, {"fd", "transport"}},
             {&ev.fd_check_tick, {"fd", "transport", "consensus"}},
             {&ev.swim_tick, {}},
             {&ev.cs_retry_tick, {"consensus", "transport"}},
             {&ev.api_abcast, {"abcast", "relcast", "relcomm", "transport", "consensus"}},
             {&ev.api_rbcast, {"relcast", "relcomm", "transport"}},
             {&ev.api_ccast, {"causal", "app", "relcast", "relcomm", "transport"}},
             {&ev.api_joinleave,
              {"membership", "abcast", "relcast", "relcomm", "transport", "consensus"}}});
}

TEST(GcDeclaration, VCABoundDeclaresTheSameMembersWithTheConfiguredBound) {
  net::SimNetwork net;
  GcOptions opts = with(DetectorImpl::kSwim);
  opts.policy = CCPolicy::kVCABound;
  GroupNode node(net, opts);
  const Isolation& decl = node.declaration(node.events().rc_data);
  EXPECT_EQ(decl.kind(), Isolation::Kind::Bound);
  EXPECT_EQ(declared_names(node, node.events().rc_data),
            (Names{"transport", "relcomm", "relcast", "abcast", "consensus", "causal", "app"}));
  for (MicroprotocolId mp : decl.members()) EXPECT_EQ(decl.bounds().at(mp), GroupNode::kVcaBound);
}

TEST(GcDeclaration, RestartDerivesTheNewIncarnationsDeclarations) {
  net::SimNetwork net;
  GroupNode node(net, with(DetectorImpl::kSwim));
  node.start(View(1, {node.id()}));
  const MicroprotocolId old_relcomm = node.rel_comm().id();
  node.crash();
  node.restart();
  // The rebuilt stack has fresh microprotocol ids; the declarations name
  // the new ones, not the dead incarnation's.
  EXPECT_NE(node.rel_comm().id(), old_relcomm);
  EXPECT_TRUE(node.declaration(node.events().rc_data).declares(node.rel_comm().id()));
  EXPECT_FALSE(node.declaration(node.events().rc_data).declares(old_relcomm));
  node.stop_timers();
  node.drain();
  EXPECT_EQ(node.total_failed_computations(), 0u);
}

}  // namespace
}  // namespace samoa::gc
