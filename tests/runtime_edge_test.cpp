// Edge-case and robustness tests for the runtime kernel: empty
// computations, deep nesting, fan-out limits, error paths, handle
// semantics, and cross-policy spec compatibility.
#include <gtest/gtest.h>

#include <thread>

#include "test_support.hpp"

namespace samoa {
namespace {

using testing::ProbeMp;

TEST(RuntimeEdge, EmptyRootCompletesUnderEveryPolicy) {
  for (auto policy : {CCPolicy::kSerial, CCPolicy::kUnsync, CCPolicy::kVCABasic,
                      CCPolicy::kVCABound, CCPolicy::kVCARoute, CCPolicy::kVCARW,
                      CCPolicy::kTSO}) {
    Stack stack;
    auto& mp = stack.emplace<ProbeMp>("p");
    Runtime rt(stack, RuntimeOptions{.policy = policy});
    Isolation iso = [&]() -> Isolation {
      switch (policy) {
        case CCPolicy::kVCABound:
          return Isolation::bound({{&mp, 1}});
        case CCPolicy::kVCARoute:
          return Isolation::route(RouteSpec{}.entry(*mp.handler));
        case CCPolicy::kVCARW:
          return Isolation::read_write({{&mp, Access::kWrite}});
        default:
          return Isolation::basic({&mp});
      }
    }();
    auto h = rt.spawn_isolated(std::move(iso), [](Context&) {});
    EXPECT_TRUE(h.wait_for(std::chrono::milliseconds(5000)))
        << "empty computation hung under " << to_string(policy);
    EXPECT_FALSE(h.failed());
  }
}

TEST(RuntimeEdge, DeepSyncNesting) {
  // 200-deep recursive sync triggers through one microprotocol.
  Stack stack;
  EventType ev("Recurse");
  class Recurser : public Microprotocol {
   public:
    explicit Recurser(EventType ev) : Microprotocol("rec"), ev_(ev) {
      h = &register_handler("h", [this](Context& ctx, const Message& m) {
        const int depth = m.as<int>();
        max_depth = std::max(max_depth, depth);
        if (depth > 0) ctx.trigger(ev_, Message::of(depth - 1));
      });
    }
    const Handler* h;
    int max_depth = 0;
   private:
    EventType ev_;
  };
  auto& rec = stack.emplace<Recurser>(ev);
  stack.bind(ev, *rec.h);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  rt.spawn_isolated(Isolation::basic({&rec}),
                    [&](Context& ctx) { ctx.trigger(ev, Message::of(200)); })
      .wait();
  EXPECT_EQ(rec.max_depth, 200);
}

TEST(RuntimeEdge, WideAsyncFanout) {
  Stack stack;
  auto& mp = stack.emplace<ProbeMp>("p");
  EventType ev("Run");
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) {
      for (int i = 0; i < 500; ++i) ctx.async_trigger(ev);
    }).wait();
  EXPECT_EQ(mp.calls.load(), 500);
}

TEST(RuntimeEdge, HandleWaitForTimesOutWhileRunning) {
  Stack stack;
  auto& mp = stack.emplace<testing::BlockingMp>("b");
  EventType ev("Run");
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(Isolation::basic({&mp}),
                             [&](Context& ctx) { ctx.trigger(ev); });
  EXPECT_FALSE(h.wait_for(std::chrono::milliseconds(30)));
  EXPECT_FALSE(h.done());
  mp.release.set();
  EXPECT_TRUE(h.wait_for(std::chrono::milliseconds(5000)));
  EXPECT_TRUE(h.done());
}

TEST(RuntimeEdge, ManySequentialRuntimesOnOneStack) {
  // A stack can be driven by consecutive runtimes (e.g. test fixtures).
  Stack stack;
  auto& mp = stack.emplace<ProbeMp>("p");
  EventType ev("Run");
  stack.bind(ev, *mp.handler);
  for (int r = 0; r < 3; ++r) {
    Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
    rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) { ctx.trigger(ev); }).wait();
  }
  EXPECT_EQ(mp.calls.load(), 3);
}

TEST(RuntimeEdge, ErrorInOneComputationDoesNotPoisonOthers) {
  Stack stack;
  auto& mp = stack.emplace<ProbeMp>("p");
  class Thrower : public Microprotocol {
   public:
    Thrower() : Microprotocol("thrower") {
      h = &register_handler("h", [](Context&, const Message&) {
        throw std::runtime_error("bang");
      });
    }
    const Handler* h;
  };
  auto& bad = stack.emplace<Thrower>();
  EventType ev_ok("Ok"), ev_bad("Bad");
  stack.bind(ev_ok, *mp.handler);
  stack.bind(ev_bad, *bad.h);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  std::vector<ComputationHandle> oks;
  for (int i = 0; i < 10; ++i) {
    rt.spawn_isolated(Isolation::basic({&bad}), [&](Context& ctx) { ctx.trigger(ev_bad); });
    oks.push_back(
        rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) { ctx.trigger(ev_ok); }));
  }
  for (auto& h : oks) EXPECT_NO_THROW(h.wait());
  EXPECT_EQ(mp.calls.load(), 10);
  rt.drain();
  // Nobody waited on the throwing computations; the stats still show them.
  EXPECT_EQ(rt.stats().completed.value(), 20u);
  EXPECT_EQ(rt.stats().failed.value(), 10u);
}

TEST(RuntimeEdge, StatsCountersAreConsistent) {
  Stack stack;
  auto& mp = stack.emplace<ProbeMp>("p");
  EventType ev("Run");
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  for (int i = 0; i < 7; ++i) {
    rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) {
      ctx.trigger(ev);
      ctx.trigger(ev);
    });
  }
  rt.drain();
  EXPECT_EQ(rt.stats().spawned.value(), 7u);
  EXPECT_EQ(rt.stats().completed.value(), 7u);
  EXPECT_EQ(rt.stats().failed.value(), 0u);
  EXPECT_EQ(rt.stats().handler_calls.value(), 14u);
}

TEST(RuntimeEdge, MessagePayloadVariety) {
  Stack stack;
  struct Big {
    std::vector<int> data;
    std::string label;
  };
  class Sink : public Microprotocol {
   public:
    Sink() : Microprotocol("sink") {
      h = &register_handler("h", [this](Context&, const Message& m) {
        total += m.as<Big>().data.size();
      });
    }
    const Handler* h;
    std::size_t total = 0;
  };
  auto& sink = stack.emplace<Sink>();
  EventType ev("Big");
  stack.bind(ev, *sink.h);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  rt.spawn_isolated(Isolation::basic({&sink}), [&](Context& ctx) {
      ctx.trigger(ev, Message::of(Big{std::vector<int>(10000, 1), "large"}));
    }).wait();
  EXPECT_EQ(sink.total, 10000u);
}

TEST(RuntimeEdge, MixedPoliciesAcrossRuntimesCoexist) {
  // Two runtimes with different policies over different stacks running
  // concurrently in one process (controllers are per-runtime).
  Stack s1, s2;
  auto& a = s1.emplace<ProbeMp>("a", std::chrono::microseconds(100));
  auto& b = s2.emplace<ProbeMp>("b", std::chrono::microseconds(100));
  EventType eva("A"), evb("B");
  s1.bind(eva, *a.handler);
  s2.bind(evb, *b.handler);
  Runtime r1(s1, RuntimeOptions{.policy = CCPolicy::kSerial});
  Runtime r2(s2, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  std::vector<ComputationHandle> hs;
  for (int i = 0; i < 10; ++i) {
    hs.push_back(r1.spawn_isolated(Isolation::basic({&a}),
                                   [&](Context& ctx) { ctx.trigger(eva); }));
    hs.push_back(r2.spawn_isolated(Isolation::basic({&b}),
                                   [&](Context& ctx) { ctx.trigger(evb); }));
  }
  for (auto& h : hs) h.wait();
  EXPECT_EQ(a.calls.load(), 10);
  EXPECT_EQ(b.calls.load(), 10);
}

}  // namespace
}  // namespace samoa
