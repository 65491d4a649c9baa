// Component-level tests of the group-communication microprotocols on
// small clusters: RelComm dedup/acks/retransmit give-up, RelCast
// rebroadcast semantics (plain traffic is relayed, atomic is not), ABcast
// batching, consensus under coordinator crash, Outbox ordering, and the
// rule GcMicroprotocol runs every handler body under.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "gc/group_node.hpp"
#include "util/rng.hpp"

namespace samoa::gc {
namespace {

using net::LinkOptions;
using net::SimNetwork;

template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout = std::chrono::milliseconds(20000)) {
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

struct Pair {
  SimNetwork net;
  std::vector<std::unique_ptr<GroupNode>> nodes;

  explicit Pair(GcOptions opts = {},
                LinkOptions links = LinkOptions{.base_latency = std::chrono::microseconds(80)},
                int n = 2)
      : net(links, 5) {
    for (int i = 0; i < n; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
    std::vector<SiteId> members;
    for (auto& node : nodes) members.push_back(node->id());
    for (auto& node : nodes) node->start(View(1, members));
  }
};

TEST(RelCommComponent, DuplicateDataSuppressed) {
  // With a lossy ack path the sender retransmits; the receiver must
  // deliver each payload exactly once.
  GcOptions opts;
  opts.retransmit_interval = std::chrono::microseconds(1000);
  opts.retransmit_timeout = std::chrono::microseconds(1200);
  Pair p(opts);
  // Drop most acks from node1 back to node0 to force duplicates.
  p.net.set_link(p.nodes[1]->id(), p.nodes[0]->id(),
                 LinkOptions{.base_latency = std::chrono::microseconds(80),
                             .drop_probability = 0.7});
  for (int i = 0; i < 5; ++i) p.nodes[0]->rbcast("dup" + std::to_string(i));
  ASSERT_TRUE(wait_until([&] { return p.nodes[1]->sink().rdelivered().size() >= 5; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(p.nodes[1]->sink().rdelivered().size(), 5u) << "duplicate delivery";
  EXPECT_GT(p.nodes[0]->rel_comm().retransmissions(), 0u);
}

TEST(RelCommComponent, AcksClearRetransmitBuffer) {
  Pair p;
  p.nodes[0]->rbcast("acked");
  ASSERT_TRUE(wait_until([&] { return p.nodes[1]->sink().rdelivered().size() == 1; }));
  EXPECT_TRUE(wait_until([&] { return p.nodes[0]->rel_comm().unacked_in_flight() == 0; }))
      << "acked messages still buffered";
}

TEST(RelCommComponent, EvictedTargetDroppedFromBuffer) {
  GcOptions opts;
  opts.retransmit_interval = std::chrono::microseconds(1000);
  opts.retransmit_timeout = std::chrono::microseconds(1500);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  // Partition node2 so sends to it stay unacked, then evict it.
  p.net.set_partitioned(p.nodes[0]->id(), p.nodes[2]->id(), true);
  p.nodes[0]->rbcast("to-all");
  ASSERT_TRUE(wait_until([&] { return p.nodes[0]->rel_comm().unacked_in_flight() > 0; }));
  p.nodes[0]->request_leave(p.nodes[2]->id());
  EXPECT_TRUE(wait_until([&] { return p.nodes[0]->rel_comm().unacked_in_flight() == 0; }))
      << "retransmit buffer kept entries for an evicted site";
}

TEST(RelCastComponent, EveryMemberRebroadcastsOnce) {
  Pair p(GcOptions{}, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  p.nodes[0]->rbcast("fanout");
  ASSERT_TRUE(wait_until([&] {
    for (auto& n : p.nodes) {
      if (n->sink().rdelivered().size() != 1) return false;
    }
    return true;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // bcast on the origin + one rebroadcast per member on first receipt.
  std::uint64_t broadcasts = 0;
  for (auto& n : p.nodes) broadcasts += n->rel_cast().broadcasts();
  EXPECT_EQ(broadcasts, 4u);

  // An atomic payload is not relayed: consensus carries it to every site,
  // so the origin's bcast is the only broadcast.
  p.nodes[0]->abcast("ordered");
  ASSERT_TRUE(wait_until([&] {
    for (auto& n : p.nodes) {
      if (n->sink().adelivered().size() != 1) return false;
    }
    return true;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::uint64_t atomic_broadcasts = 0;
  for (auto& n : p.nodes) atomic_broadcasts += n->rel_cast().broadcasts();
  EXPECT_EQ(atomic_broadcasts - broadcasts, 1u);
}

TEST(ABcastComponent, BatchesRespectMsgIdOrder) {
  // Burst from one site: decided batches are sorted by MsgId, so the
  // delivery order must equal submission order for a single origin.
  Pair p(GcOptions{}, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  for (int i = 0; i < 8; ++i) p.nodes[0]->abcast(std::string("b").append(std::to_string(i)));
  ASSERT_TRUE(wait_until([&] { return p.nodes[2]->sink().adelivered().size() == 8; }));
  const auto got = p.nodes[2]->sink().adelivered();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i].data, std::string("b").append(std::to_string(i)));
  }
}

TEST(ABcastComponent, InstanceCountBounded) {
  // Batching: a burst must not burn one consensus instance per message.
  // Calm timers: under sanitizer slowdowns the default 2ms periodic load
  // starves the burst and the test measures the scheduler instead.
  GcOptions opts;
  opts.heartbeat_interval = std::chrono::microseconds(20'000);
  opts.fd_timeout = std::chrono::microseconds(200'000);
  opts.cs_retry_interval = std::chrono::microseconds(50'000);
  opts.cs_retry_timeout = std::chrono::microseconds(100'000);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  for (int i = 0; i < 12; ++i) p.nodes[0]->abcast(std::string("x").append(std::to_string(i)));
  ASSERT_TRUE(wait_until([&] { return p.nodes[0]->sink().adelivered().size() == 12; }));
  EXPECT_LT(p.nodes[0]->ab().next_instance(), 12u)
      << "no batching happened: one instance per message";
}

TEST(ConsensusComponent, CoordinatorCrashRotatesViaSuspicion) {
  // Instance 1's coordinator is members[1]; crash it before proposing.
  // The failure detector must suspect it and the next coordinator
  // (members[2]) finishes the instance with the majority {0, 2}.
  GcOptions opts;
  opts.heartbeat_interval = std::chrono::microseconds(1000);
  opts.fd_timeout = std::chrono::microseconds(6000);
  opts.cs_retry_interval = std::chrono::microseconds(4000);
  opts.cs_retry_timeout = std::chrono::microseconds(6000);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // heartbeats flowing
  p.nodes[1]->crash();
  p.nodes[0]->abcast("despite-crash");
  EXPECT_TRUE(wait_until(
      [&] {
        return p.nodes[0]->sink().adelivered().size() == 1 &&
               p.nodes[2]->sink().adelivered().size() == 1;
      },
      std::chrono::milliseconds(30000)))
      << "consensus did not rotate past the crashed coordinator";
  // A pre-crash heartbeat delivered late can revoke suspicion for one
  // check period; the site stays dead, so suspicion must re-form.
  EXPECT_TRUE(wait_until([&] { return p.nodes[0]->fd().is_suspected(p.nodes[1]->id()); }));
}

TEST(ConsensusComponent, RetryRecoversFromLostRounds) {
  // Very lossy links: rounds get lost; the retry timer must eventually
  // push an instance through (safety is unconditional, liveness via
  // retries).
  GcOptions opts;
  opts.retransmit_interval = std::chrono::microseconds(1000);
  opts.retransmit_timeout = std::chrono::microseconds(1500);
  opts.cs_retry_interval = std::chrono::microseconds(3000);
  opts.cs_retry_timeout = std::chrono::microseconds(5000);
  Pair p(opts,
         LinkOptions{.base_latency = std::chrono::microseconds(80), .drop_probability = 0.25},
         3);
  p.nodes[0]->abcast("lossy");
  EXPECT_TRUE(wait_until(
      [&] { return p.nodes[2]->sink().adelivered().size() == 1; },
      std::chrono::milliseconds(40000)))
      << "consensus never recovered under 25% loss";
}

TEST(ConsensusComponent, DecisionsIdenticalAcrossSites) {
  Pair p(GcOptions{}, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    p.nodes[rng.next_below(3)]->abcast(std::string("d").append(std::to_string(i)));
  }
  ASSERT_TRUE(wait_until([&] {
    for (auto& n : p.nodes) {
      if (n->sink().adelivered().size() != 6) return false;
    }
    return true;
  }));
  const auto ref = p.nodes[0]->sink().adelivered();
  for (auto& n : p.nodes) {
    const auto got = n->sink().adelivered();
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].id, ref[i].id);
  }
}

TEST(FailureDetectorComponent, ViewChangePrunesEvictedBookkeeping) {
  // Regression: the viewChange handler used to leave last_heard_ and
  // suspected_ entries behind for evicted peers, so the detector kept
  // "suspecting" non-members forever (and kept their timestamps alive
  // across a later re-join, poisoning the fresh incarnation's timeout).
  GcOptions opts;
  opts.heartbeat_interval = std::chrono::microseconds(1000);
  opts.fd_timeout = std::chrono::microseconds(6000);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  const SiteId victim = p.nodes[2]->id();
  ASSERT_TRUE(p.nodes[0]->fd().tracks(victim));
  p.nodes[2]->crash();
  ASSERT_TRUE(wait_until([&] { return p.nodes[0]->fd().is_suspected(victim); }));
  p.nodes[0]->request_leave(victim);
  EXPECT_TRUE(wait_until([&] { return !p.nodes[0]->fd().tracks(victim); }))
      << "last_heard_ entry survived the eviction";
  EXPECT_FALSE(p.nodes[0]->fd().is_suspected(victim))
      << "suspected_ entry survived the eviction";
}

TEST(FailureDetectorComponent, ViewChangeSeedsJoinerTimestamp) {
  // Regression: a fresh joiner had no last_heard_ seed, so the detector
  // skipped it until its first heartbeat arrived — a newcomer that died
  // immediately after joining was never suspected. The viewChange handler
  // must seed every new member at "now".
  GcOptions opts;
  opts.heartbeat_interval = std::chrono::microseconds(1000);
  opts.fd_timeout = std::chrono::microseconds(8000);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 4);
  auto joiner = std::make_unique<GroupNode>(p.net, opts);
  joiner->start(View(1, {joiner->id()}));
  p.nodes[0]->request_join(joiner->id());
  ASSERT_TRUE(wait_until([&] { return p.nodes[0]->fd().tracks(joiner->id()); }))
      << "joiner never seeded into last_heard_";
  // Kill the newcomer right away: the seed (not a received heartbeat) must
  // be what starts its timeout clock.
  joiner->crash();
  EXPECT_TRUE(wait_until([&] { return p.nodes[0]->fd().is_suspected(joiner->id()); }))
      << "joiner crash after join was never detected";
  joiner->stop_timers();
  joiner->drain();
}

TEST(Outbox, FlushesInQueueingOrder) {
  Stack stack;
  std::vector<std::string> log;
  class Rec : public Microprotocol {
   public:
    Rec(std::string n, std::vector<std::string>& log) : Microprotocol(n) {
      h = &register_handler("h", [this, &log](Context&, const Message& m) {
        log.push_back(name() + ":" + m.as<std::string>());
      });
    }
    const Handler* h;
  };
  auto& a = stack.emplace<Rec>("a", log);
  auto& b = stack.emplace<Rec>("b", log);
  EventType eva("A"), evb("B");
  stack.bind(eva, *a.h);
  stack.bind(evb, *b.h);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  rt.spawn_isolated(Isolation::basic({&a, &b}), [&](Context& ctx) {
      Outbox out;
      out.trigger(evb, Message::of(std::string("1")));
      out.trigger(eva, Message::of(std::string("2")));
      out.trigger_all(evb, Message::of(std::string("3")));
      out.flush(ctx);
      out.flush(ctx);  // second flush is a no-op (entries cleared)
    }).wait();
  EXPECT_EQ(log, (std::vector<std::string>{"b:1", "a:2", "b:3"}));
}

/// Two handlers under GcMicroprotocol's rule: `outer` queues a trigger of
/// `inner` and then throws if its payload says so.
class RuleProbe : public GcMicroprotocol {
 public:
  RuleProbe(const GcOptions& opts, const GcEvents& events)
      : GcMicroprotocol("probe", opts, events) {
    outer = handle("outer", [this](Outbox& out, const bool& fail) {
      out.trigger(inner_event, Message::of(false));
      if (fail) throw std::runtime_error("outer body failed after queueing");
    });
    inner = handle("inner", [this](Outbox&, const bool&) { inner_calls.fetch_add(1); });
  }

  EventType outer_event{"Outer"};
  EventType inner_event{"Inner"};
  const Handler* outer = nullptr;
  const Handler* inner = nullptr;
  std::atomic<int> inner_calls{0};
};

/// A RuleProbe under manual locks on a wall-clock runtime. Each run()
/// spawns one computation on `outer` and waits for it. If one is stuck on
/// the guard, the rig leaks its runtime and stack: destroying the runtime
/// would wait for that computation forever.
struct RuleRig {
  RuleRig() {
    opts.manual_locks = true;
    stack = std::make_unique<Stack>();
    probe = &stack->emplace<RuleProbe>(opts, events);
    stack->bind(probe->outer_event, *probe->outer);
    stack->bind(probe->inner_event, *probe->inner);
    runtime = std::make_unique<Runtime>(*stack, RuntimeOptions{.policy = CCPolicy::kUnsync});
  }
  ~RuleRig() {
    if (stuck) {
      (void)runtime.release();
      (void)stack.release();
    }
  }

  /// False if the computation did not complete; rethrows its error.
  bool run(bool fail) {
    const ComputationHandle h =
        runtime->spawn_isolated(Isolation::basic({probe}), [this, fail](Context& ctx) {
          ctx.trigger(probe->outer_event, Message::of(fail));
        });
    stuck = !h.wait_for(std::chrono::milliseconds(10000));
    return !stuck;
  }

  GcOptions opts;
  GcEvents events;
  std::unique_ptr<Stack> stack;
  RuleProbe* probe = nullptr;
  std::unique_ptr<Runtime> runtime;
  bool stuck = false;
};

TEST(GcMicroprotocolRule, FlushRunsAfterTheGuardIsReleased) {
  // `inner` takes the same guard as `outer`: had outer's trigger been
  // flushed while outer held it, inner would wait for it forever.
  RuleRig rig;
  ASSERT_TRUE(rig.run(false)) << "the flush ran under the guard";
  EXPECT_EQ(rig.probe->inner_calls.load(), 1);
}

TEST(GcMicroprotocolRule, ThrowingBodyFlushesNothingAndReleasesTheGuard) {
  RuleRig rig;
  EXPECT_THROW(rig.run(true), std::runtime_error);
  EXPECT_EQ(rig.probe->inner_calls.load(), 0) << "a failed body's queued trigger was flushed";
  ASSERT_TRUE(rig.run(false)) << "the failed body left the guard held";
  EXPECT_EQ(rig.probe->inner_calls.load(), 1);
}

}  // namespace
}  // namespace samoa::gc
