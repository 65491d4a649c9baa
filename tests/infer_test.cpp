// Tests for isolation-declaration inference (core/infer): member-set and
// routing-pattern derivation from declared handler triggers, and
// consistency of inferred declarations with actual executions.
#include <gtest/gtest.h>

#include "core/infer.hpp"
#include "proto/fig1.hpp"
#include "test_support.hpp"

namespace samoa {
namespace {

/// a --evB--> b --evC--> c, plus an unreachable d.
struct ChainStack {
  Stack stack;
  EventType eva{"A"}, evb{"B"}, evc{"C"}, evd{"D"};

  class Fwd : public Microprotocol {
   public:
    Fwd(std::string n, const EventType* next) : Microprotocol(std::move(n)) {
      handler = &register_handler("run", [next](Context& ctx, const Message& m) {
        if (next != nullptr) ctx.trigger(*next, m);
      });
    }
    const Handler* handler;
  };

  Fwd *a, *b, *c, *d;
  TriggerDeclarations decls;

  ChainStack() {
    a = &stack.emplace<Fwd>("a", &evb);
    b = &stack.emplace<Fwd>("b", &evc);
    c = &stack.emplace<Fwd>("c", nullptr);
    d = &stack.emplace<Fwd>("d", nullptr);
    stack.bind(eva, *a->handler);
    stack.bind(evb, *b->handler);
    stack.bind(evc, *c->handler);
    stack.bind(evd, *d->handler);
    decls.declare(*a->handler, evb).declare(*b->handler, evc);
  }
};

TEST(Infer, MembersFollowDeclaredTriggers) {
  ChainStack f;
  auto iso = infer_members(f.stack, f.decls, {f.eva});
  EXPECT_EQ(iso.members().size(), 3u);
  EXPECT_TRUE(iso.declares(f.a->id()));
  EXPECT_TRUE(iso.declares(f.b->id()));
  EXPECT_TRUE(iso.declares(f.c->id()));
  EXPECT_FALSE(iso.declares(f.d->id()));
}

TEST(Infer, MembersFromMidChain) {
  ChainStack f;
  auto iso = infer_members(f.stack, f.decls, {f.evb});
  EXPECT_EQ(iso.members().size(), 2u);
  EXPECT_FALSE(iso.declares(f.a->id()));
}

TEST(Infer, MultipleRootEventsUnion) {
  ChainStack f;
  auto iso = infer_members(f.stack, f.decls, {f.evc, f.evd});
  EXPECT_EQ(iso.members().size(), 2u);
  EXPECT_TRUE(iso.declares(f.c->id()));
  EXPECT_TRUE(iso.declares(f.d->id()));
}

TEST(Infer, UnboundRootThrows) {
  ChainStack f;
  EventType unbound("Unbound");
  EXPECT_THROW(infer_members(f.stack, f.decls, {unbound}), ConfigError);
  EXPECT_THROW(infer_route(f.stack, f.decls, {unbound}), ConfigError);
}

TEST(Infer, InferredMembersRunTheComputation) {
  ChainStack f;
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(infer_members(f.stack, f.decls, {f.eva}),
                             [&](Context& ctx) { ctx.trigger(f.eva); });
  EXPECT_NO_THROW(h.wait());
}

TEST(Infer, MissingDeclarationIsCaughtAtRuntime) {
  // Declarations that lie (b omits its trigger of evc) produce an
  // under-approximated M; the runtime rejects the undeclared call — the
  // declared metadata is checkable, not trusted.
  ChainStack f;
  TriggerDeclarations partial;
  partial.declare(*f.a->handler, f.evb);  // b's trigger of evc omitted
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(infer_members(f.stack, partial, {f.eva}),
                             [&](Context& ctx) { ctx.trigger(f.eva); });
  EXPECT_THROW(h.wait(), IsolationError);
  EXPECT_EQ(rt.stats().failed.value(), 1u);
}

TEST(Infer, RouteEntriesAndEdges) {
  ChainStack f;
  auto iso = infer_route(f.stack, f.decls, {f.eva});
  iso.resolve_route(f.stack);
  const auto& spec = iso.route_spec();
  ASSERT_EQ(spec.entries.size(), 1u);
  EXPECT_EQ(spec.entries[0], f.a->handler->id());
  EXPECT_EQ(spec.edges.size(), 2u);
}

TEST(Infer, InferredRouteRunsUnderVCARoute) {
  ChainStack f;
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCARoute, .record_trace = true});
  std::vector<ComputationHandle> hs;
  for (int i = 0; i < 10; ++i) {
    hs.push_back(rt.spawn_isolated(infer_route(f.stack, f.decls, {f.eva}),
                                   [&](Context& ctx) { ctx.trigger(f.eva); }));
  }
  for (auto& h : hs) h.wait();
  rt.drain();
  testing::expect_isolated(rt);
}

TEST(Infer, CyclicDeclarationsTerminate) {
  Stack stack;
  EventType evx("X"), evy("Y");
  class Fwd : public Microprotocol {
   public:
    explicit Fwd(std::string n) : Microprotocol(std::move(n)) {
      handler = &register_handler("run", [](Context&, const Message&) {});
    }
    const Handler* handler;
  };
  auto& x = stack.emplace<Fwd>("x");
  auto& y = stack.emplace<Fwd>("y");
  stack.bind(evx, *x.handler);
  stack.bind(evy, *y.handler);
  TriggerDeclarations decls;
  decls.declare(*x.handler, evy).declare(*y.handler, evx);  // cycle
  auto iso = infer_members(stack, decls, {evx});
  EXPECT_EQ(iso.members().size(), 2u);
  auto route = infer_route(stack, decls, {evx});
  route.resolve_route(stack);
  EXPECT_EQ(route.route_spec().edges.size(), 2u);
}

TEST(Infer, Fig1EquivalentToHandWrittenDeclaration) {
  // Reconstruct Figure 1's declaration by inference from the protocol's
  // wiring (P -> toR, Q -> toR, R -> toS) and compare it with the
  // hand-written `isolated [P R S]` declaration from proto/fig1.
  proto::Fig1Protocol proto;
  const Handler* p = proto.p().handlers()[0].get();
  const Handler* q = proto.q().handlers()[0].get();
  const Handler* r = proto.r().handlers()[0].get();
  TriggerDeclarations decls;
  decls.declare(*p, proto.ev_to_r())
      .declare(*q, proto.ev_to_r())
      .declare(*r, proto.ev_to_s());

  const auto inferred_a = infer_members(proto.stack(), decls, {proto.ev_a0()});
  const auto hand_written_a = proto.iso_a_basic();
  EXPECT_EQ(inferred_a.members().size(), hand_written_a.members().size());
  for (MicroprotocolId mp : hand_written_a.members()) {
    EXPECT_TRUE(inferred_a.declares(mp));
  }
  EXPECT_FALSE(inferred_a.declares(proto.q().id()));

  const auto inferred_b = infer_members(proto.stack(), decls, {proto.ev_b0()});
  EXPECT_TRUE(inferred_b.declares(proto.q().id()));
  EXPECT_FALSE(inferred_b.declares(proto.p().id()));

  // The inferred declaration actually drives the protocol.
  Runtime rt(proto.stack(), RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(inferred_a, [&](Context& ctx) {
    ctx.trigger(proto.ev_a0(), Message::of(proto::Fig1Msg{.tag = 'a'}));
  });
  EXPECT_NO_THROW(h.wait());
}

}  // namespace
}  // namespace samoa
