// Component tests of the consensus microprotocol (src/gc/consensus.*).
//
// The first group runs real Consensus microprotocols, one per site, over a
// scripted network: every wire message lands in a queue the test delivers,
// holds or drops by hand, so a run is one exact interleaving. They pin the
// first-round shortcut — the slot owner's attempt 0 goes straight to
// ACCEPT, every later attempt still runs PREPARE/PROMISE — and the safety
// it rests on: a value the owner's first round got chosen survives the
// owner's crash even when the next coordinator holds another proposal.
//
// The last test runs a virtual-time GroupNode fleet and cuts the final
// DECIDE of the stream to a rejoined site, which holds no proposal of its
// own and sees no later decision; only the retry tick's decision pull of
// an idle accepted value lets it deliver the last message.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "gc/consensus.hpp"
#include "gc/group_node.hpp"
#include "net/timer_service.hpp"
#include "time/clock.hpp"
#include "util/sync.hpp"
#include "verify/vs_checker.hpp"

namespace samoa::gc {
namespace {

using namespace std::chrono_literals;

/// A time source the test moves by hand. The scripted cluster arms no
/// timers, so nothing ever registers with it.
class ManualClock final : public time::ClockSource {
 public:
  Clock::time_point now() const override {
    return Clock::time_point(std::chrono::microseconds(now_us_.load()));
  }
  bool is_virtual() const override { return false; }
  std::unique_ptr<time::Registration> add_source(time::EventSource&) override {
    throw std::logic_error("ManualClock drives no event sources");
  }
  void advance(std::chrono::microseconds by) { now_us_ += by.count(); }

 private:
  std::atomic<long long> now_us_{1'000'000};
};

struct Packet {
  SiteId from;
  SiteId to;
  Wire wire;
};

/// The end of one site's stack: catches what its Consensus sends and
/// decides.
class Outlet : public Microprotocol {
 public:
  Outlet(SiteId self, std::mutex& mu, std::deque<Packet>& queue, std::map<std::string, int>& sent)
      : Microprotocol("outlet"), self_(self), mu_(&mu), queue_(&queue), sent_(&sent) {
    send = &register_handler("send", [this](Context&, const Message& m) {
      const auto& req = m.as<TransportSend>();
      std::lock_guard lock(*mu_);
      ++(*sent_)[wire_kind(req.wire)];
      queue_->push_back(Packet{self_, req.to, req.wire});
    });
    decided = &register_handler("decided", [this](Context&, const Message& m) {
      std::lock_guard lock(*mu_);
      decisions.push_back(m.as<CsDecided>());
    });
  }

  const Handler* send = nullptr;
  const Handler* decided = nullptr;
  std::vector<CsDecided> decisions;  // guarded by the cluster mutex

 private:
  SiteId self_;
  std::mutex* mu_;
  std::deque<Packet>* queue_;
  std::map<std::string, int>* sent_;
};

/// One site: a Consensus and its Outlet in a stack of their own.
struct ConsensusSite {
  ConsensusSite(SiteId id, ManualClock& clock, std::mutex& mu, std::deque<Packet>& queue,
                std::map<std::string, int>& sent) {
    opts.clock = &clock;
    opts.cs_retry_timeout = 8000us;
    consensus = &stack.emplace<Consensus>(opts, events, id, View{});
    outlet = &stack.emplace<Outlet>(id, mu, queue, sent);
    stack.bind(events.cs_propose, *consensus->propose_handler());
    stack.bind(events.cs_wire, *consensus->on_wire_handler());
    stack.bind(events.suspect, *consensus->on_suspect_handler());
    stack.bind(events.cs_retry_tick, *consensus->retry_handler());
    stack.bind(events.view_change, *consensus->view_change_handler());
    stack.bind(events.transport_send, *outlet->send);
    stack.bind(events.cs_decided, *outlet->decided);
    runtime = std::make_unique<Runtime>(stack);
  }

  /// Run one computation rooted at `ev` to completion.
  void run(const EventType& ev, Message msg) {
    runtime
        ->spawn_isolated(Isolation::basic({consensus, outlet}),
                         [&ev, msg = std::move(msg)](Context& ctx) { ctx.trigger(ev, msg); })
        .wait();
  }

  GcOptions opts;
  GcEvents events;
  Stack stack;
  Consensus* consensus = nullptr;
  Outlet* outlet = nullptr;
  std::unique_ptr<Runtime> runtime;
};

/// A cluster of consensus sites over a hand-driven network.
class ScriptedCluster {
 public:
  explicit ScriptedCluster(int n) {
    std::vector<SiteId> members;
    for (int i = 0; i < n; ++i) members.push_back(SiteId(i));
    view_ = View(1, members);
    for (SiteId id : members) {
      sites_.push_back(std::make_unique<ConsensusSite>(id, clock_, mu_, queue_, sent_));
      sites_.back()->run(sites_.back()->events.view_change, Message::of(view_));
    }
  }

  const View& view() const { return view_; }
  ManualClock& clock() { return clock_; }

  void propose(int site, std::uint64_t instance, ConsensusValue value) {
    ConsensusSite& s = *sites_[site];
    s.run(s.events.cs_propose, Message::of(CsPropose{instance, std::move(value)}));
  }
  void suspect(int site, int suspected) {
    ConsensusSite& s = *sites_[site];
    s.run(s.events.suspect, Message::of(SiteId(suspected)));
  }
  void retry(int site) {
    ConsensusSite& s = *sites_[site];
    s.run(s.events.cs_retry_tick, Message{});
  }
  void crash(int site) { crashed_.push_back(SiteId(site)); }

  /// Deliver queued packets in FIFO order, including the ones deliveries
  /// send, until only packets `hold` keeps back are left. Packets from or
  /// to a crashed site and packets `drop` selects are discarded.
  void deliver(const std::function<bool(const Packet&)>& drop = nullptr,
               const std::function<bool(const Packet&)>& hold = nullptr) {
    std::deque<Packet> held;
    for (;;) {
      std::optional<Packet> next;
      {
        std::lock_guard lock(mu_);
        if (queue_.empty()) break;
        next = std::move(queue_.front());
        queue_.pop_front();
      }
      const Packet& p = *next;
      if (is_crashed(p.from) || is_crashed(p.to) || (drop && drop(p))) continue;
      if (hold && hold(p)) {
        held.push_back(p);
        continue;
      }
      ConsensusSite& to = *sites_[p.to.value()];
      to.run(to.events.cs_wire, Message::of(FromWire{p.from, p.wire}));
    }
    std::lock_guard lock(mu_);
    queue_.insert(queue_.begin(), held.begin(), held.end());
  }

  /// Packets of one wire kind that left any site so far (delivered,
  /// held or dropped alike).
  int sent(const char* kind) {
    std::lock_guard lock(mu_);
    const auto it = sent_.find(kind);
    return it == sent_.end() ? 0 : it->second;
  }

  /// The payloads `site` decided for `instance`, comma-separated; "none"
  /// if it did not decide.
  std::string decided(int site, std::uint64_t instance) {
    std::lock_guard lock(mu_);
    for (const CsDecided& d : sites_[site]->outlet->decisions) {
      if (d.instance != instance) continue;
      std::string text;
      for (const AppMessage& m : d.value) text += (text.empty() ? "" : ",") + m.data;
      return text;
    }
    return "none";
  }

 private:
  bool is_crashed(SiteId s) const {
    return std::find(crashed_.begin(), crashed_.end(), s) != crashed_.end();
  }

  ManualClock clock_;
  std::mutex mu_;
  std::deque<Packet> queue_;
  std::map<std::string, int> sent_;
  View view_;
  std::vector<std::unique_ptr<ConsensusSite>> sites_;
  std::vector<SiteId> crashed_;
};

ConsensusValue batch_of(int origin, std::uint64_t seq, std::string data) {
  return ConsensusValue{AppMessage{make_msg_id(SiteId(origin), seq), std::move(data), true}};
}

template <typename T>
bool is(const Packet& p) {
  return std::holds_alternative<T>(p.wire);
}

constexpr int kSites = 5;
constexpr std::uint64_t kSlot = 7;

TEST(ConsensusFirstRound, FaultFreeInstanceSendsNoPrepareOrPromise) {
  ScriptedCluster c(kSites);
  const int owner = static_cast<int>(c.view().member_at(kSlot).value());
  const ConsensusValue v = batch_of(3, 1, "m");
  // Every site proposes the same batch; the owner's proposal comes last,
  // so the others are already waiting on it.
  for (int s = 0; s < kSites; ++s) {
    if (s != owner) c.propose(s, kSlot, v);
  }
  EXPECT_EQ(c.sent("CsPrepare") + c.sent("CsAccept"), 0) << "a non-owner started attempt 0";
  c.propose(owner, kSlot, v);
  c.deliver();

  EXPECT_EQ(c.sent("CsPrepare"), 0);
  EXPECT_EQ(c.sent("CsPromise"), 0);
  EXPECT_EQ(c.sent("CsAccept"), kSites);
  EXPECT_EQ(c.sent("CsAccepted"), kSites);
  EXPECT_GE(c.sent("CsDecide"), kSites);
  for (int s = 0; s < kSites; ++s) {
    EXPECT_EQ(c.decided(s, kSlot), v.front().data) << "site " << s;
  }
}

TEST(ConsensusFirstRound, RetryAttemptStillRunsPhaseOne) {
  // The owner never proposes (it has nothing, or it crashed): after a
  // retry timeout the attempt-1 coordinator runs the full two phases.
  ScriptedCluster c(kSites);
  const int next = static_cast<int>(c.view().member_at(kSlot + 1).value());
  const ConsensusValue v = batch_of(next, 1, "retried");
  c.propose(next, kSlot, v);
  c.deliver();
  EXPECT_EQ(c.sent("CsAccept"), 0);

  c.clock().advance(8000us);
  c.retry(next);
  c.deliver();

  EXPECT_EQ(c.sent("CsPrepare"), kSites);
  EXPECT_EQ(c.sent("CsPromise"), kSites);
  EXPECT_EQ(c.sent("CsAccept"), kSites);
  for (int s = 0; s < kSites; ++s) {
    EXPECT_EQ(c.decided(s, kSlot), v.front().data) << "site " << s;
  }
}

TEST(ConsensusFirstRound, OwnersChosenValueSurvivesItsCrash) {
  // The owner's ACCEPT reaches a majority (itself and two others), its
  // DECIDE reaches one site, and it crashes. The attempt-1 coordinator
  // holds a different proposal and is suspicious of the owner at once.
  // The site that decided is slow: its traffic arrives only after the new
  // round. Phase 1 must find the owner's accepted value and re-propose it;
  // a coordinator that skipped phase 1 in attempt 1 would get its own
  // value chosen by the other three and split the decision.
  ScriptedCluster c(kSites);
  const View& v = c.view();
  const int owner = static_cast<int>(v.member_at(kSlot).value());
  const int coord = static_cast<int>(v.member_at(kSlot + 1).value());
  const int learner = static_cast<int>(v.member_at(kSlot + 2).value());  // gets the DECIDE
  const int acceptor = static_cast<int>(v.member_at(kSlot + 3).value());
  const int other = static_cast<int>(v.member_at(kSlot + 4).value());
  const ConsensusValue owners = batch_of(owner, 1, "owner's");
  const ConsensusValue coords = batch_of(coord, 1, "coordinator's");

  c.propose(coord, kSlot, coords);
  c.propose(owner, kSlot, owners);
  const auto to = [](int site) { return [site](const Packet& p) { return p.to == SiteId(site); }; };
  // ACCEPT reaches owner, learner and acceptor only; their ACCEPTEDs make
  // a majority, and the owner's DECIDE wave is held back.
  c.deliver([&](const Packet& p) { return is<CsAccept>(p) && (to(coord)(p) || to(other)(p)); },
            [](const Packet& p) { return is<CsDecide>(p); });
  EXPECT_EQ(c.sent("CsPrepare"), 0);
  // The DECIDE reaches the learner only; then the owner is gone.
  c.deliver([&](const Packet& p) { return !to(learner)(p); });
  ASSERT_EQ(c.decided(learner, kSlot), "owner's");
  c.crash(owner);

  c.suspect(coord, owner);
  c.deliver(nullptr, [&](const Packet& p) { return p.from == SiteId(learner); });
  c.deliver();  // the learner's held replies arrive last

  EXPECT_GT(c.sent("CsPrepare"), 0) << "attempt 1 skipped phase 1";
  for (int s : {coord, learner, acceptor, other}) {
    EXPECT_EQ(c.decided(s, kSlot), "owner's") << "site " << s;
  }
}

TEST(ConsensusFirstRound, EmptyBatchIsASkipOnlyForTheOwner) {
  // A rejoined site with nothing of its own offers an empty batch: only
  // the owner of the slot's first round takes it, and the slot decides
  // empty; anywhere else it is ignored and sends nothing.
  ScriptedCluster c(kSites);
  const int owner = static_cast<int>(c.view().member_at(kSlot).value());
  const int next = static_cast<int>(c.view().member_at(kSlot + 1).value());
  c.propose(next, kSlot, {});
  c.deliver();
  EXPECT_EQ(c.sent("CsAccept") + c.sent("CsPrepare"), 0);

  c.propose(owner, kSlot, {});
  c.deliver();
  EXPECT_EQ(c.sent("CsPrepare"), 0);
  EXPECT_EQ(c.sent("CsAccept"), kSites);
  for (int s = 0; s < kSites; ++s) {
    EXPECT_EQ(c.decided(s, kSlot), "") << "site " << s;
  }
}

// --- Rejoin tail gap --------------------------------------------------------

TEST(ConsensusTail, RejoinedSiteLearnsALostFinalDecide) {
  time::VirtualClock clock;
  GcOptions opts;
  opts.clock = &clock;
  opts.fd_timeout = 20000us;  // the 3 ms cut must not look like a crash
  // A lossless, jitter-free network: the one DECIDE wave the cut removes
  // is the only thing ever lost.
  net::SimNetwork net(net::LinkOptions{.base_latency = 100us}, 1, &clock);
  net::TimerService script(&clock);

  constexpr int kN = 3;
  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < kN; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  std::vector<SiteId> members;
  for (auto& n : nodes) members.push_back(n->id());
  GroupNode& rejoined = *nodes[2];
  const SiteId rejoined_id = rejoined.id();

  OneShotEvent done;
  bool delivered_last = false;
  std::optional<SiteId> owner;
  const auto has_last = [](GroupNode& n) {
    const auto got = n.sink().adelivered();
    return std::any_of(got.begin(), got.end(),
                       [](const AppMessage& m) { return m.data == "last"; });
  };
  const auto shut_down = [&] {
    for (auto& n : nodes) n->stop_timers();
    script.cancel_all();
    done.set();
  };
  {
    time::Pin setup(clock);
    for (auto& n : nodes) n->start(View(1, members));
    script.schedule(1000us, [&] { nodes[0]->abcast("first"); });
    script.schedule(5000us, [&] { rejoined.crash(); });
    script.schedule(6000us, [&] { nodes[0]->request_leave(rejoined_id); });
    script.schedule(20000us, [&] { rejoined.restart(); });
    script.schedule(21000us, [&] { nodes[0]->request_join(rejoined_id); });
    // The last message of the stream: its slot's owner submits it, so the
    // owner's first-round ACCEPT leaves at once. One microsecond later the
    // owner -> rejoined link is cut for 3 ms: the rejoined site has
    // accepted the value, but every DECIDE copy to it is lost.
    script.schedule(40000us, [&] {
      const std::uint64_t slot = nodes[0]->ab().next_instance();
      owner = nodes[0]->membership().view_snapshot().member_at(slot);
      nodes[owner->value()]->abcast("last");
    });
    script.schedule(40001us, [&] { net.set_partitioned_oneway(*owner, rejoined_id, true); });
    script.schedule(43000us, [&] { net.set_partitioned_oneway(*owner, rejoined_id, false); });
    script.schedule_periodic(1000us, [&] {
      if (!has_last(*nodes[0]) || !has_last(*nodes[1]) || !has_last(rejoined)) return;
      delivered_last = true;
      shut_down();
    });
    script.schedule(200000us, shut_down);
  }
  done.wait();
  net.drain();
  for (auto& n : nodes) n->drain();

  ASSERT_TRUE(owner.has_value());
  ASSERT_NE(*owner, rejoined_id) << "the scenario needs the rejoined site to hold no proposal";
  ASSERT_EQ(rejoined.rejoins_completed(), 1u);
  EXPECT_TRUE(delivered_last) << "the rejoined site never learnt the stream's last decision";
  EXPECT_GT(rejoined.consensus().decision_pulls(), 0u);
  std::vector<verify::IncarnationTrace> traces;
  for (auto& n : nodes) {
    for (auto& t : n->vs_traces()) traces.push_back(std::move(t));
  }
  const auto report = verify::check_virtual_synchrony(traces);
  EXPECT_TRUE(report.ok()) << report.describe();
}

}  // namespace
}  // namespace samoa::gc
