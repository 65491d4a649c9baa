// Tests for the CausalCast layer (vector-clock causal delivery) and
// RelComm's credit-based flow control.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "gc/group_node.hpp"
#include "time/clock.hpp"
#include "util/sync.hpp"

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

TEST(CausalCodec, HeaderRoundTrip) {
  CausalMsg msg;
  msg.origin = SiteId{3};
  msg.vc = {{SiteId{0}, 5}, {SiteId{3}, 9}};
  msg.payload = "hello causal";
  const auto encoded = CausalCast::encode(msg);
  CausalMsg decoded;
  ASSERT_TRUE(CausalCast::decode(encoded, decoded));
  EXPECT_EQ(decoded.origin, msg.origin);
  EXPECT_EQ(decoded.vc, msg.vc);
  EXPECT_EQ(decoded.payload, msg.payload);
}

TEST(CausalCodec, OrdinaryPayloadsAreRejected) {
  CausalMsg out;
  EXPECT_FALSE(CausalCast::decode("plain text", out));
  EXPECT_FALSE(CausalCast::decode("", out));
  EXPECT_FALSE(CausalCast::decode("\x01", out));
  EXPECT_FALSE(CausalCast::decode("\x01X", out));
}

TEST(CausalCodec, TruncatedHeaderIsRejectedSafely) {
  CausalMsg msg;
  msg.origin = SiteId{1};
  msg.vc = {{SiteId{1}, 1}};
  msg.payload = "payload";
  const auto encoded = CausalCast::encode(msg);
  CausalMsg out;
  for (std::size_t cut = 2; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(CausalCast::decode(encoded.substr(0, cut), out)) << "cut=" << cut;
  }
}

/// Deterministic unit fixture: one CausalCast fed crafted deliveries
/// directly (no network), with a recorder on the causal_deliver event.
struct CausalUnit {
  GcOptions opts;
  GcEvents events;
  Stack stack;
  CausalCast* causal;
  std::vector<std::string>* log;

  class Recorder : public Microprotocol {
   public:
    explicit Recorder(std::vector<std::string>& log) : Microprotocol("rec") {
      h = &register_handler("h", [&log](Context&, const Message& m) {
        log.push_back(m.as<std::string>());
      });
    }
    const Handler* h;
  };

  Runtime* rt;
  std::unique_ptr<Runtime> rt_owned;

  CausalUnit() {
    static std::vector<std::string> static_dummy;  // not used
    log = new std::vector<std::string>();
    causal = &stack.emplace<CausalCast>(opts, events, SiteId{9}, View(1, {SiteId{9}}));
    auto& rec = stack.emplace<Recorder>(*log);
    stack.bind(events.deliver_out, *causal->on_rdeliver_handler());
    stack.bind(events.causal_deliver, *rec.h);
    rt_owned = std::make_unique<Runtime>(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
    rt = rt_owned.get();
    mps_ = {causal, &rec};
  }
  ~CausalUnit() { delete log; }

  /// Inject a causal message as if RelCast had just delivered it; its id
  /// carries the causal channel bit, as CausalCast::submit's ids do.
  void inject(SiteId origin, std::map<SiteId, std::uint64_t> vc, std::string payload) {
    CausalMsg msg{origin, std::move(vc), std::move(payload)};
    AppMessage app{make_msg_id(origin, kCausalChannelBit | 1), CausalCast::encode(msg)};
    rt->spawn_isolated(Isolation::basic(mps_), [&, app](Context& ctx) {
        ctx.trigger_all(events.deliver_out, Message::of(app));
      }).wait();
  }

 private:
  std::vector<const Microprotocol*> mps_;
};

TEST(CausalCast, InOrderDeliveryIsImmediate) {
  CausalUnit u;
  const SiteId a{1};
  u.inject(a, {{a, 1}}, "m1");
  u.inject(a, {{a, 2}}, "m2");
  EXPECT_EQ(*u.log, (std::vector<std::string>{"m1", "m2"}));
  EXPECT_EQ(u.causal->buffered_count(), 0u);
}

TEST(CausalCast, OutOfOrderFromOneOriginIsBuffered) {
  CausalUnit u;
  const SiteId a{1};
  u.inject(a, {{a, 2}}, "m2");  // arrives first
  EXPECT_TRUE(u.log->empty());
  u.inject(a, {{a, 1}}, "m1");
  EXPECT_EQ(*u.log, (std::vector<std::string>{"m1", "m2"}));
  EXPECT_EQ(u.causal->buffered_count(), 1u);
}

TEST(CausalCast, CrossOriginCausalityIsRespected) {
  // m2 from B causally depends on m1 from A (B's clock includes A:1);
  // m2 arriving first must wait for m1.
  CausalUnit u;
  const SiteId a{1}, b{2};
  u.inject(b, {{a, 1}, {b, 1}}, "m2");
  EXPECT_TRUE(u.log->empty()) << "delivered m2 before its causal predecessor";
  u.inject(a, {{a, 1}}, "m1");
  EXPECT_EQ(*u.log, (std::vector<std::string>{"m1", "m2"}));
}

TEST(CausalCast, ConcurrentMessagesDeliverInAnyOrder) {
  CausalUnit u;
  const SiteId a{1}, b{2};
  u.inject(b, {{b, 1}}, "from-b");  // concurrent with from-a
  u.inject(a, {{a, 1}}, "from-a");
  EXPECT_EQ(u.log->size(), 2u);
}

TEST(CausalCast, DuplicatesAreIgnored) {
  CausalUnit u;
  const SiteId a{1};
  u.inject(a, {{a, 1}}, "m1");
  u.inject(a, {{a, 1}}, "m1");
  EXPECT_EQ(u.log->size(), 1u);
}

TEST(CausalCast, ChainedBufferDrain) {
  CausalUnit u;
  const SiteId a{1};
  u.inject(a, {{a, 3}}, "m3");
  u.inject(a, {{a, 2}}, "m2");
  EXPECT_TRUE(u.log->empty());
  u.inject(a, {{a, 1}}, "m1");  // releases the whole chain
  EXPECT_EQ(*u.log, (std::vector<std::string>{"m1", "m2", "m3"}));
}

/// Two sites on one virtual clock: site 0 rbcasts `payload` once, and the
/// fleet runs 20 virtual ms — far past RelCast's delivery everywhere —
/// before it stops and quiesces.
struct RbcastPair {
  time::VirtualClock clock;
  OneShotEvent stopped;  // outlives `script`, whose callback sets it
  SimNetwork net{LinkOptions{.base_latency = std::chrono::microseconds(100)}, 5, &clock};
  net::TimerService script{&clock};
  std::vector<std::unique_ptr<GroupNode>> nodes;

  explicit RbcastPair(const std::string& payload) {
    GcOptions opts;
    opts.clock = &clock;
    for (int i = 0; i < 2; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
    {
      time::Pin setup(clock);
      const View initial(1, {nodes[0]->id(), nodes[1]->id()});
      for (auto& n : nodes) n->start(initial);
      script.schedule(std::chrono::microseconds(500), [this, payload] {
        nodes[0]->rbcast(payload);
      });
      script.schedule(std::chrono::microseconds(20'000), [this] {
        for (auto& n : nodes) n->stop_timers();
        stopped.set();
      });
    }
    stopped.wait();
    net.drain();
    for (auto& n : nodes) n->drain();
  }
};

TEST(CausalCast, PlainBroadcastStartingWithTheHeaderByteIsDelivered) {
  // A causal header starts with 0x01, but only the causal channel bit of a
  // MsgId marks causal traffic: a plain rbcast may start with any byte.
  const std::string payload = "\x01" "raw bytes";
  RbcastPair p(payload);
  for (auto& n : p.nodes) {
    const auto got = n->sink().rdelivered();
    ASSERT_EQ(got.size(), 1u) << "site " << n->id().value() << " dropped the rbcast";
    EXPECT_EQ(got[0].data, payload);
  }
}

TEST(CausalCast, CausalShapedPlainBroadcastIsNotCausallyDelivered) {
  // A plain rbcast whose bytes decode as a causal header from origin 77:
  // without the causal channel bit it is an ordinary payload.
  const std::string payload =
      CausalCast::encode(CausalMsg{SiteId{77}, {{SiteId{77}, 1}}, "forged"});
  RbcastPair p(payload);
  for (auto& n : p.nodes) {
    EXPECT_TRUE(n->sink().cdelivered().empty())
        << "site " << n->id().value() << " causally delivered a plain rbcast";
    EXPECT_EQ(n->causal().delivered_count(), 0u);
    const auto got = n->sink().rdelivered();
    ASSERT_EQ(got.size(), 1u) << "site " << n->id().value();
    EXPECT_EQ(got[0].data, payload);
  }
}

TEST(CausalCast, EndToEndCausalOrderAcrossSites) {
  // A ccasts m1; B (after causally delivering m1) ccasts m2; every site —
  // including C, whose direct link from A is cut so m1 only arrives via
  // B's rebroadcast — must deliver m1 before m2.
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(100)}, 11);
  GcOptions opts;
  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  const View initial(1, {nodes[0]->id(), nodes[1]->id(), nodes[2]->id()});
  net.set_partitioned(nodes[0]->id(), nodes[2]->id(), true);  // A-C cut
  for (auto& n : nodes) n->start(initial);

  nodes[0]->ccast("m1");
  ASSERT_TRUE(wait_until([&] { return nodes[1]->sink().cdelivered().size() == 1; }));
  nodes[1]->ccast("m2");
  ASSERT_TRUE(wait_until([&] {
    return nodes[2]->sink().cdelivered().size() == 2 &&
           nodes[0]->sink().cdelivered().size() == 2;
  })) << "causal broadcasts did not converge";
  for (auto& n : nodes) {
    EXPECT_EQ(n->sink().cdelivered(),
              (std::vector<std::string>{"m1", "m2"}))
        << "site " << n->id().value() << " violated causal order";
  }
  for (auto& n : nodes) n->stop_timers();
}

TEST(FlowControl, WindowCapsInFlightMessages) {
  // Twice the window's worth of rbcasts to one peer at one virtual
  // instant: no ack can return before the window fills, so the rest must
  // queue until acks free credits.
  constexpr std::size_t kSends = 2 * RelComm::kFlowWindow;
  time::VirtualClock clock;
  OneShotEvent stopped;  // outlives `script`, whose callback sets it
  SimNetwork net(LinkOptions{.base_latency = std::chrono::microseconds(300)}, 21, &clock);
  net::TimerService script(&clock);
  GcOptions opts;
  opts.clock = &clock;
  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < 2; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  {
    time::Pin setup(clock);
    const View initial(1, {nodes[0]->id(), nodes[1]->id()});
    for (auto& n : nodes) n->start(initial);
    script.schedule(std::chrono::microseconds(500), [&] {
      for (std::size_t i = 0; i < kSends; ++i) nodes[0]->rbcast(std::string("f").append(std::to_string(i)));
    });
    script.schedule(std::chrono::microseconds(50'000), [&] {
      for (auto& n : nodes) n->stop_timers();
      stopped.set();
    });
  }
  stopped.wait();
  net.drain();
  for (auto& n : nodes) n->drain();

  EXPECT_EQ(nodes[1]->sink().rdelivered().size(), kSends) << "flow-controlled sends never drained";
  EXPECT_LE(nodes[0]->rel_comm().peak_in_flight_per_peer(), RelComm::kFlowWindow)
      << "credit window exceeded";
  EXPECT_GT(nodes[0]->rel_comm().flow_deferred(), 0u) << "window never engaged";
}

}  // namespace
}  // namespace samoa::gc
