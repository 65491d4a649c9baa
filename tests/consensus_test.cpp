// Component tests of the consensus microprotocol (src/gc/consensus.*).
//
// The first group runs real Consensus microprotocols, one per site, over a
// scripted network: every wire message lands in a queue the test delivers,
// holds or drops by hand, so a run is one exact interleaving. They pin the
// first-round shortcut — the slot owner's attempt 0 goes straight to
// ACCEPT, every later attempt still runs PREPARE/PROMISE — and the safety
// it rests on: a value the owner's first round got chosen survives the
// owner's crash even when the next coordinator holds another proposal.
// They also pin the learner rule: the batch's origin decides from a
// majority of ACCEPTEDs before any DECIDE reaches it, not from a minority,
// not from ACCEPTEDs of a round it did not accept, and not while it has
// not applied a view change below the slot.
//
// The last tests run virtual-time GroupNode fleets. One
// cuts the final DECIDE of the stream to a rejoined site, which holds no
// proposal of its own and sees no later decision; only the retry tick's
// decision pull of an idle accepted value lets it deliver the last
// message. Another cuts a
// site off the whole last slot, whose payload it never received; only the
// frontier in the header of its peers' later packets makes it pull the
// decision, under either failure detector. A live site evicted under SWIM
// hears such frontiers too, and must not pull the slots decided after its
// eviction. Two more cut
// a broadcast's origin off from all but one member and crash it: RelCast
// does not relay an atomic payload, so consensus alone must bring it to
// every survivor, while a plain broadcast still travels by the relay.
// Another hands a site that restarted and rejoined without being evicted
// a payload the group delivered before its join, which only ABcast's
// rejoined-proposer filter keeps it from proposing again, and one more
// checks that such a site's new RelComm sends are not taken for its old
// ones. The next ones pin the heartbeat detector's liveness rule: any
// packet proves its sender alive, so a heartbeat goes only to a peer that
// got nothing else since the previous tick. The last one sends a node
// datagrams that do not decode, which it must drop and count.
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
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
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
      if (req.to == self_) ++(*sent_)["to self"];
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

/// One site: a Consensus and its Outlet in a stack of their own, and the
/// cursor an ordering layer above would report (the instance it waits for).
struct ConsensusSite {
  ConsensusSite(SiteId id, ManualClock& clock, std::mutex& mu, std::deque<Packet>& queue,
                std::map<std::string, int>& sent, std::uint64_t initial_cursor)
      : cursor(initial_cursor) {
    opts.clock = &clock;
    opts.cs_retry_timeout = 8000us;
    consensus = &stack.emplace<Consensus>(opts, events, id, View{});
    consensus->set_frontier_source([this] { return cursor.load(); });
    consensus->set_suspect_source([this](SiteId site) {
      std::lock_guard lock(suspects_mu);
      return suspects.contains(site);
    });
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

  std::atomic<std::uint64_t> cursor;
  // What the detector's mirror would report: the sites this one suspects.
  std::mutex suspects_mu;
  std::set<SiteId> suspects;
  GcOptions opts;
  GcEvents events;
  Stack stack;
  Consensus* consensus = nullptr;
  Outlet* outlet = nullptr;
  std::unique_ptr<Runtime> runtime;
};

constexpr int kSites = 5;
constexpr std::uint64_t kSlot = 7;

/// A cluster of consensus sites over a hand-driven network. Every site
/// holds the same view and has its cursor at kSlot until the test moves
/// them.
class ScriptedCluster {
 public:
  explicit ScriptedCluster(int n) {
    std::vector<SiteId> members;
    for (int i = 0; i < n; ++i) members.push_back(SiteId(i));
    view_ = View(1, members);
    for (SiteId id : members) {
      sites_.push_back(std::make_unique<ConsensusSite>(id, clock_, mu_, queue_, sent_, kSlot));
      sites_.back()->run(sites_.back()->events.view_change, Message::of(view_));
    }
  }

  const View& view() const { return view_; }
  ManualClock& clock() { return clock_; }

  /// Give one site a view and a cursor of its own: a site that has not yet
  /// applied every slot below kSlot.
  void lag(int site, View view, std::uint64_t cursor) {
    ConsensusSite& s = *sites_[site];
    s.cursor = cursor;
    s.run(s.events.view_change, Message::of(std::move(view)));
  }

  void propose(int site, std::uint64_t instance, ConsensusValue value) {
    ConsensusSite& s = *sites_[site];
    s.run(s.events.cs_propose, Message::of(CsPropose{instance, std::move(value)}));
  }
  void suspect(int site, int suspected) {
    ConsensusSite& s = *sites_[site];
    s.run(s.events.suspect, Message::of(SiteId(suspected)));
  }
  /// Make `site`'s detector mirror report `suspected` from now on, without
  /// a Suspect event: a suspicion that stands when an instance opens.
  void stand_suspected(int site, int suspected) {
    ConsensusSite& s = *sites_[site];
    std::lock_guard lock(s.suspects_mu);
    s.suspects.insert(SiteId(suspected));
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

  /// Packets of one wire kind, or "to self" for those a site addressed to
  /// itself, that left any site so far (delivered, held or dropped alike).
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
  return ConsensusValue{AppMessage{make_msg_id(SiteId(origin), seq), std::move(data)}};
}

template <typename T>
bool is(const Packet& p) {
  return std::holds_alternative<T>(p.wire);
}

TEST(ConsensusFirstRound, FaultFreeInstanceSendsNoPrepareOrPromise) {
  // The acceptors report to the proposer and to the batch's origin, and
  // each of those learners sends one DECIDE wave; when the owner is the
  // origin, there is one learner.
  for (const bool origin_owns : {false, true}) {
    SCOPED_TRACE(origin_owns ? "the origin owns the slot" : "the origin does not own the slot");
    ScriptedCluster c(kSites);
    const int owner = static_cast<int>(c.view().member_at(kSlot).value());
    const int origin = origin_owns ? owner : (owner + 1) % kSites;
    const int learners = origin_owns ? 1 : 2;
    const ConsensusValue v = batch_of(origin, 1, "m");
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
    EXPECT_EQ(c.sent("CsAccepted"), learners * kSites);
    EXPECT_EQ(c.sent("CsDecide"), learners * (kSites - 1));
    // The owner's ACCEPT to itself and each learner's own ACCEPTED.
    EXPECT_EQ(c.sent("to self"), 1 + learners);
    for (int s = 0; s < kSites; ++s) {
      EXPECT_EQ(c.decided(s, kSlot), v.front().data) << "site " << s;
    }
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

// --- The coordinator choice ------------------------------------------------------

TEST(ConsensusSkip, InstanceOpeningOnASuspectedOwnerRunsPhaseOne) {
  // The attempt-1 coordinator already suspects the slot's owner when it
  // proposes. It skips the owner at once, with no Suspect event and no
  // retry timeout, and its attempt runs both phases. The owner never
  // proposes.
  ScriptedCluster c(kSites);
  const int owner = static_cast<int>(c.view().member_at(kSlot).value());
  const int coord = static_cast<int>(c.view().member_at(kSlot + 1).value());
  c.stand_suspected(coord, owner);
  c.propose(coord, kSlot, batch_of(coord, 1, "skipped"));
  c.deliver();

  EXPECT_EQ(c.sent("CsPrepare"), kSites) << "the instance did not skip to a phase-1 attempt";
  EXPECT_EQ(c.sent("CsPromise"), kSites);
  EXPECT_EQ(c.sent("CsAccept"), kSites);
  for (int s = 0; s < kSites; ++s) {
    EXPECT_EQ(c.decided(s, kSlot), "skipped") << "site " << s;
  }
}

TEST(ConsensusSkip, SuspectedLiveOwnersChosenValueSurvives) {
  // The owner is live, but its link to the attempt-1 coordinator is cut
  // one way and the coordinator stands suspicious of it. The owner's first
  // round reaches itself and two acceptors, a majority, and the owner
  // decides; its DECIDE wave is lost. The coordinator then opens the
  // instance with a different proposal and skips the owner. Its attempt
  // must run phase 1, find the owner's value in a majority of promises and
  // propose it again. A skip that kept attempt 0's phase-1-free shortcut
  // would get its own value chosen and disagree with the owner.
  ScriptedCluster c(kSites);
  const View& v = c.view();
  const int owner = static_cast<int>(v.member_at(kSlot).value());
  const int coord = static_cast<int>(v.member_at(kSlot + 1).value());
  const int other = static_cast<int>(v.member_at(kSlot + 4).value());
  const auto cut = [&](const Packet& p) {
    return p.from == SiteId(owner) && p.to == SiteId(coord);
  };
  c.propose(owner, kSlot, batch_of(owner, 1, "owner's"));
  c.deliver([&](const Packet& p) {
    return cut(p) || (is<CsAccept>(p) && p.to == SiteId(other)) || is<CsDecide>(p);
  });
  ASSERT_EQ(c.decided(owner, kSlot), "owner's");
  ASSERT_EQ(c.sent("CsPrepare"), 0);

  c.stand_suspected(coord, owner);
  c.propose(coord, kSlot, batch_of(coord, 1, "coordinator's"));
  c.deliver(cut);

  EXPECT_GT(c.sent("CsPrepare"), 0) << "the skip kept the phase-1-free shortcut";
  for (int s = 0; s < kSites; ++s) {
    EXPECT_EQ(c.decided(s, kSlot), "owner's") << "site " << s;
  }
}

// --- Late learners -------------------------------------------------------------

TEST(ConsensusLate, PromiserLearnsWhatItsCoordinatorFoundInPhaseOne) {
  // The owner's first round decides the slot, but the attempt-1
  // coordinator, which holds a proposal, loses the ACCEPT and every
  // DECIDE, and `undecided` loses every DECIDE. The coordinator's retry
  // runs phase 1: the decided sites answer its PREPARE with the decision,
  // `undecided` with a PROMISE. Either way round, `undecided` must learn
  // the decision from the coordinator: site 0's PROMISE reaches it before
  // the first DECIDE does (it passes the DECIDE on), site 4's after (it
  // answers the PROMISE).
  for (const int undecided : {0, 4}) {
    SCOPED_TRACE("undecided site " + std::to_string(undecided));
    ScriptedCluster c(kSites);
    const int owner = static_cast<int>(c.view().member_at(kSlot).value());
    const int coord = static_cast<int>(c.view().member_at(kSlot + 1).value());
    ASSERT_NE(undecided, owner);
    ASSERT_NE(undecided, coord);
    const ConsensusValue v = batch_of(owner, 1, "m");
    c.propose(coord, kSlot, v);
    c.propose(owner, kSlot, v);
    c.deliver([&](const Packet& p) {
      return (p.to == SiteId(coord) && (is<CsAccept>(p) || is<CsDecide>(p))) ||
             (p.to == SiteId(undecided) && is<CsDecide>(p));
    });
    ASSERT_EQ(c.decided(owner, kSlot), "m");
    ASSERT_EQ(c.decided(coord, kSlot), "none");
    ASSERT_EQ(c.decided(undecided, kSlot), "none");

    c.clock().advance(8000us);
    c.retry(coord);
    c.deliver();

    EXPECT_EQ(c.decided(coord, kSlot), "m");
    EXPECT_EQ(c.decided(undecided, kSlot), "m");
  }
}

// --- The learner rule ----------------------------------------------------------

TEST(ConsensusLearner, OriginDecidesBeforeAnyDecide) {
  // Every DECIDE is held: the owner and the batch's origin decide from
  // ACCEPTEDs alone, in three hops for the origin, and nobody else does.
  ScriptedCluster c(kSites);
  const int owner = static_cast<int>(c.view().member_at(kSlot).value());
  const int origin = static_cast<int>(c.view().member_at(kSlot + 2).value());
  c.propose(owner, kSlot, batch_of(origin, 1, "m"));
  c.deliver(nullptr, [](const Packet& p) { return is<CsDecide>(p); });

  EXPECT_EQ(c.decided(origin, kSlot), "m");
  EXPECT_EQ(c.decided(owner, kSlot), "m");
  for (int s = 0; s < kSites; ++s) {
    if (s == owner || s == origin) continue;
    EXPECT_EQ(c.decided(s, kSlot), "none") << "site " << s;
  }
}

TEST(ConsensusLearner, MinorityOfAcceptedsDecidesNothing) {
  // Every acceptor accepts, but only the owner's and the origin's own
  // ACCEPTEDs reach the origin: two of five.
  ScriptedCluster c(kSites);
  const int owner = static_cast<int>(c.view().member_at(kSlot).value());
  const int origin = static_cast<int>(c.view().member_at(kSlot + 2).value());
  c.propose(owner, kSlot, batch_of(origin, 1, "m"));
  c.deliver(
      [&](const Packet& p) {
        return is<CsAccepted>(p) && p.to == SiteId(origin) && p.from != SiteId(owner) &&
               p.from != SiteId(origin);
      },
      [](const Packet& p) { return is<CsDecide>(p); });

  EXPECT_EQ(c.decided(owner, kSlot), "m");
  EXPECT_EQ(c.decided(origin, kSlot), "none");
  c.deliver();  // the owner's DECIDE wave
  EXPECT_EQ(c.decided(origin, kSlot), "m");
}

TEST(ConsensusLearner, NoDecisionFromARoundNotAccepted) {
  // Two coordinators with different values, both carrying a payload of
  // the origin. The owner's first round reaches the origin alone, so v1 is
  // the origin's accepted value. The attempt-1 coordinator's phase 1 misses
  // the origin and gets v2 chosen, and the origin hears a majority of
  // ACCEPTED for that round before its own ACCEPT arrives. Those ACCEPTEDs
  // are not about v1: the origin must wait for ACCEPT(v2), then decide v2.
  ScriptedCluster c(kSites);
  const View& v = c.view();
  const int owner = static_cast<int>(v.member_at(kSlot).value());
  const int coord = static_cast<int>(v.member_at(kSlot + 1).value());
  const int origin = static_cast<int>(v.member_at(kSlot + 2).value());
  const ConsensusValue v1 = batch_of(origin, 1, "v1");
  const ConsensusValue v2{AppMessage{make_msg_id(SiteId(coord), 1), "v2"},
                          AppMessage{make_msg_id(SiteId(origin), 2), "o2"}};
  const auto to = [](int site) { return [site](const Packet& p) { return p.to == SiteId(site); }; };

  c.propose(coord, kSlot, v2);
  c.propose(owner, kSlot, v1);
  c.deliver([&](const Packet& p) { return is<CsAccept>(p) && !to(origin)(p); });
  ASSERT_EQ(c.sent("CsDecide"), 0);

  c.suspect(coord, owner);
  c.deliver(
      [&](const Packet& p) { return is<CsPrepare>(p) && to(origin)(p); },
      [&](const Packet& p) { return (is<CsAccept>(p) && to(origin)(p)) || is<CsDecide>(p); });
  ASSERT_EQ(c.decided(coord, kSlot), "v2,o2");
  EXPECT_EQ(c.decided(origin, kSlot), "none") << "decided from a round it did not accept";

  // ACCEPT(v2) arrives; every DECIDE is still held.
  c.deliver(nullptr, [](const Packet& p) { return is<CsDecide>(p); });
  EXPECT_EQ(c.decided(origin, kSlot), "v2,o2");
  c.deliver();
  for (int s = 0; s < kSites; ++s) {
    EXPECT_EQ(c.decided(s, kSlot), "v2,o2") << "site " << s;
  }
}

TEST(ConsensusLearner, OriginBehindAViewChangeDecidesNothing) {
  // Sites 3 and 4 joined in two slots below kSlot, and the origin has not
  // applied them: it still holds the view {0, 1, 2}, whose majority is 2,
  // while kSlot's view has five members. The owner's first-round ACCEPT
  // reaches site 0 and the origin only, so the origin holds two ACCEPTEDs.
  // They are a majority of its view but not of kSlot's: it must decide
  // nothing. The attempt-1 coordinator's phase 1 then reaches {2, 3, 4},
  // which accepted nothing, and gets its own value chosen; an origin that
  // had decided the owner's value would disagree with every other site.
  ScriptedCluster c(kSites);
  const View& v = c.view();
  const int owner = static_cast<int>(v.member_at(kSlot).value());
  const int coord = static_cast<int>(v.member_at(kSlot + 1).value());
  const int origin = 1;
  ASSERT_EQ(owner, 2);
  ASSERT_EQ(coord, 3);
  c.lag(origin, View(0, {SiteId(0), SiteId(1), SiteId(2)}), kSlot - 2);
  const auto to = [](int site) { return [site](const Packet& p) { return p.to == SiteId(site); }; };

  c.propose(coord, kSlot, batch_of(coord, 1, "coordinator's"));
  c.propose(owner, kSlot, batch_of(origin, 1, "origin's"));
  // Any DECIDE the origin sent would be lost.
  c.deliver([&](const Packet& p) {
    return (is<CsAccept>(p) && !to(0)(p) && !to(origin)(p)) || is<CsDecide>(p);
  });
  EXPECT_EQ(c.decided(origin, kSlot), "none") << "decided from a majority of an older view";
  EXPECT_EQ(c.sent("CsDecide"), 0);

  c.suspect(coord, owner);
  c.deliver([&](const Packet& p) { return is<CsPrepare>(p) && (to(0)(p) || to(origin)(p)); });
  for (int s = 0; s < kSites; ++s) {
    EXPECT_EQ(c.decided(s, kSlot), "coordinator's") << "site " << s;
  }
}

// --- Virtual-time fleets ------------------------------------------------------

/// A GroupNode fleet on one virtual clock and a lossless, jitter-free
/// network, driven by a script of timers. `run` starts every node in one
/// view, arms the script and returns once the script calls `shut_down`.
struct VirtualCluster {
  explicit VirtualCluster(int n, GcOptions opts = {})
      : net(net::LinkOptions{.base_latency = 100us}, 1, &clock), script(&clock) {
    opts.clock = &clock;
    for (int i = 0; i < n; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
    for (auto& node : nodes) members.push_back(node->id());
  }

  GroupNode& operator[](std::size_t i) { return *nodes[i]; }

  void run(const std::function<void()>& arm_script) {
    {
      time::Pin setup(clock);
      for (auto& n : nodes) n->start(View(1, members));
      arm_script();
    }
    done.wait();
    net.drain();
    for (auto& n : nodes) n->drain();
  }

  void shut_down() {
    for (auto& n : nodes) n->stop_timers();
    script.cancel_all();
    done.set();
  }

  std::uint64_t failed_computations() const {
    std::uint64_t failed = 0;
    for (const auto& n : nodes) failed += n->total_failed_computations();
    return failed;
  }

  verify::VsReport check_virtual_synchrony() const {
    std::vector<verify::IncarnationTrace> traces;
    for (const auto& n : nodes) {
      for (auto& t : n->vs_traces()) traces.push_back(std::move(t));
    }
    return verify::check_virtual_synchrony(traces);
  }

  time::VirtualClock clock;
  net::SimNetwork net;
  net::TimerService script;
  std::vector<std::unique_ptr<GroupNode>> nodes;
  std::vector<SiteId> members;
  OneShotEvent done;
};

std::vector<std::string> payloads(const std::vector<AppMessage>& msgs) {
  std::vector<std::string> out;
  for (const AppMessage& m : msgs) out.push_back(m.data);
  return out;
}

long count_of(const std::vector<AppMessage>& msgs, const std::string& data) {
  return std::count_if(msgs.begin(), msgs.end(),
                       [&](const AppMessage& m) { return m.data == data; });
}

// --- Rejoin tail gap --------------------------------------------------------

TEST(ConsensusTail, RejoinedSiteLearnsALostFinalDecide) {
  GcOptions opts;
  opts.fd_timeout = 20000us;  // the 3 ms cut must not look like a crash
  // The network is lossless: the one DECIDE wave the cut removes is the
  // only thing ever lost.
  VirtualCluster c(3, opts);
  GroupNode& rejoined = c[2];
  const SiteId rejoined_id = rejoined.id();

  bool delivered_last = false;
  std::optional<SiteId> owner;
  const auto has_last = [](GroupNode& n) { return count_of(n.sink().adelivered(), "last") > 0; };
  c.run([&] {
    c.script.schedule(1000us, [&] { c[0].abcast("first"); });
    c.script.schedule(5000us, [&] { rejoined.crash(); });
    c.script.schedule(6000us, [&] { c[0].request_leave(rejoined_id); });
    c.script.schedule(20000us, [&] { rejoined.restart(); });
    c.script.schedule(21000us, [&] { c[0].request_join(rejoined_id); });
    // The last message of the stream: its slot's owner submits it, so the
    // owner's first-round ACCEPT leaves at once. One microsecond later the
    // owner -> rejoined link is cut for 3 ms: the rejoined site has
    // accepted the value, but every DECIDE copy to it is lost.
    c.script.schedule(40000us, [&] {
      const std::uint64_t slot = c[0].ab().next_instance();
      owner = c[0].membership().view_snapshot().member_at(slot);
      c[owner->value()].abcast("last");
    });
    c.script.schedule(40001us, [&] { c.net.set_partitioned_oneway(*owner, rejoined_id, true); });
    c.script.schedule(43000us, [&] { c.net.set_partitioned_oneway(*owner, rejoined_id, false); });
    c.script.schedule_periodic(1000us, [&] {
      if (!has_last(c[0]) || !has_last(c[1]) || !has_last(rejoined)) return;
      delivered_last = true;
      c.shut_down();
    });
    c.script.schedule(200000us, [&] { c.shut_down(); });
  });

  ASSERT_TRUE(owner.has_value());
  ASSERT_NE(*owner, rejoined_id) << "the scenario needs the rejoined site to hold no proposal";
  ASSERT_EQ(rejoined.rejoins_completed(), 1u);
  EXPECT_TRUE(delivered_last) << "the rejoined site never learnt the stream's last decision";
  EXPECT_GT(rejoined.consensus().decision_pulls(), 0u);
  const auto report = c.check_virtual_synchrony();
  EXPECT_TRUE(report.ok()) << report.describe();
}

// --- A crashed origin's last broadcast ---------------------------------------

struct OrphanRun {
  bool complete = false;
  std::vector<std::vector<AppMessage>> adelivered;  // per survivor
  std::vector<long> plain_copies;                   // "orphan" rdeliveries per survivor
  std::uint64_t orphan_broadcasts = 0;  // RelCast broadcasts of "orphan", all sites
  std::uint64_t failed_computations = 0;
  verify::VsReport vs;
};

// Four sites; site 3 is the origin. Every survivor abcasts once before and
// once after. At 10 ms the origin -> 1 and origin -> 2 links are cut one
// way and the origin broadcasts "orphan" (an abcast, or a plain rbcast),
// so only site 0 receives it. The origin crashes 0.5 ms later, before its
// RelComm copies to 1 and 2 can be retransmitted past the cut, and site 1
// evicts it at 11 ms.
OrphanRun run_orphaned_broadcast(bool atomic) {
  constexpr int kSurvivors = 3;
  VirtualCluster c(kSurvivors + 1);
  GroupNode& origin = c[kSurvivors];
  OrphanRun run;
  const auto finished = [&](GroupNode& n) {
    const std::size_t app_msgs = 2 * kSurvivors + (atomic ? 1 : 0);
    return n.sink().adelivered().size() >= app_msgs &&
           (atomic || count_of(n.sink().rdelivered(), "orphan") > 0);
  };
  const auto broadcasts = [&] {
    std::uint64_t sum = 0;
    for (auto& n : c.nodes) sum += n->rel_cast().broadcasts();
    return sum;
  };
  c.run([&] {
    c.script.schedule(1000us, [&] {
      for (int i = 0; i < kSurvivors; ++i) c[i].abcast("before-" + std::to_string(i));
    });
    c.script.schedule(10000us, [&] {
      run.orphan_broadcasts = broadcasts();
      c.net.set_partitioned_oneway(origin.id(), c[1].id(), true);
      c.net.set_partitioned_oneway(origin.id(), c[2].id(), true);
      if (atomic) {
        origin.abcast("orphan");
      } else {
        origin.rbcast("orphan");
      }
    });
    c.script.schedule(10500us, [&] { origin.crash(); });
    // Every relay of "orphan" has happened by now (each hop is 0.1 ms),
    // and no other broadcast has started.
    c.script.schedule(10999us,
                      [&] { run.orphan_broadcasts = broadcasts() - run.orphan_broadcasts; });
    c.script.schedule(11000us, [&] { c[1].request_leave(origin.id()); });
    c.script.schedule(20000us, [&] {
      for (int i = 0; i < kSurvivors; ++i) c[i].abcast("after-" + std::to_string(i));
    });
    c.script.schedule_periodic(1000us, [&] {
      for (int i = 0; i < kSurvivors; ++i) {
        if (!finished(c[i])) return;
      }
      run.complete = true;
      c.shut_down();
    });
    c.script.schedule(300000us, [&] { c.shut_down(); });
  });

  for (int i = 0; i < kSurvivors; ++i) {
    run.adelivered.push_back(c[i].sink().adelivered());
    run.plain_copies.push_back(count_of(c[i].sink().rdelivered(), "orphan"));
  }
  run.failed_computations = c.failed_computations();
  run.vs = c.check_virtual_synchrony();
  return run;
}

TEST(CrashedOrigin, SurvivorsOrderAnAbcastOnlyOneOfThemHeld) {
  const OrphanRun run = run_orphaned_broadcast(/*atomic=*/true);
  ASSERT_TRUE(run.complete) << "a survivor never delivered every message";
  // The origin's bcast is the only RelCast broadcast: nobody relayed the
  // payload, so sites 1 and 2 can have learnt it only from consensus.
  EXPECT_EQ(run.orphan_broadcasts, 1u);
  const std::vector<std::string> order = payloads(run.adelivered[0]);
  ASSERT_EQ(std::count(order.begin(), order.end(), "orphan"), 1)
      << "site 0 must deliver the orphaned abcast exactly once";
  for (std::size_t i = 1; i < run.adelivered.size(); ++i) {
    EXPECT_EQ(payloads(run.adelivered[i]), order) << "site " << i << " disagrees on the order";
  }
  EXPECT_EQ(run.failed_computations, 0u);
  EXPECT_TRUE(run.vs.ok()) << run.vs.describe();
}

TEST(CrashedOrigin, RelayBringsAPlainBroadcastToEverySurvivor) {
  const OrphanRun run = run_orphaned_broadcast(/*atomic=*/false);
  ASSERT_TRUE(run.complete) << "a survivor never received the plain broadcast";
  for (std::size_t i = 0; i < run.plain_copies.size(); ++i) {
    EXPECT_EQ(run.plain_copies[i], 1) << "site " << i;
  }
  // The origin's bcast plus one relay by each site that received it: the
  // origin itself (loopback) and all three survivors.
  EXPECT_EQ(run.orphan_broadcasts, 5u);
  for (std::size_t i = 1; i < run.adelivered.size(); ++i) {
    EXPECT_EQ(payloads(run.adelivered[i]), payloads(run.adelivered[0])) << "site " << i;
  }
  EXPECT_EQ(run.failed_computations, 0u);
  EXPECT_TRUE(run.vs.ok()) << run.vs.describe();
}

// --- A lost last slot at a site that never held its payload -------------------

// The chaos-fleet shape in which only later packets' headers are left to
// show a site that it fell behind. The next slot's owner abcasts the
// stream's last message while its link to one site is cut one way, and
// crashes 2 ms later without being evicted. The cut site gets no copy of the
// payload, and it loses the owner's ACCEPT and every DECIDE copy, since
// the owner coordinates the slot and sends them all. It holds no payload,
// no proposal and no accepted value for the slot, and no later slot
// decides. Only the frontier in the header of the other survivors'
// packets (heartbeats, SWIM probes, anything) can tell it to pull the
// decision.
void expect_lost_last_slot_learnt(DetectorImpl detector) {
  constexpr int kN = 4;
  GcOptions opts;
  opts.detector_impl = detector;
  VirtualCluster c(kN, opts);
  std::optional<SiteId> owner;
  std::optional<SiteId> cut;
  bool complete = false;
  const auto has_last = [](GroupNode& n) { return count_of(n.sink().adelivered(), "last") > 0; };
  c.run([&] {
    c.script.schedule(1000us, [&] {
      for (auto& n : c.nodes) n->abcast("before-" + std::to_string(n->id().value()));
    });
    c.script.schedule(10000us, [&] {
      const std::uint64_t slot = c[0].ab().next_instance();
      const View view = c[0].membership().view_snapshot();
      owner = view.member_at(slot);
      cut = view.member_at(slot + 1);
      c.net.set_partitioned_oneway(*owner, *cut, true);
      c[owner->value()].abcast("last");
    });
    c.script.schedule(12000us, [&] { c[owner->value()].crash(); });
    c.script.schedule_periodic(1000us, [&] {
      if (!owner) return;  // "last" is not sent yet
      for (auto& n : c.nodes) {
        if (n->id() != *owner && !has_last(*n)) return;
      }
      complete = true;
      c.shut_down();
    });
    c.script.schedule(200000us, [&] { c.shut_down(); });
  });

  ASSERT_TRUE(owner.has_value() && cut.has_value());
  ASSERT_NE(*owner, *cut);
  GroupNode& behind = c[cut->value()];
  EXPECT_TRUE(complete) << "site " << cut->value() << " never learnt the last slot's decision";
  EXPECT_GT(behind.consensus().decision_pulls(), 0u);
  std::vector<std::string> order;
  for (auto& n : c.nodes) {
    if (n->id() == *owner) continue;
    const std::vector<std::string> mine = payloads(n->sink().adelivered());
    EXPECT_EQ(std::count(mine.begin(), mine.end(), "last"), 1) << "site " << n->id().value();
    if (order.empty()) order = mine;
    EXPECT_EQ(mine, order) << "site " << n->id().value() << " disagrees on the order";
  }
  EXPECT_EQ(c.failed_computations(), 0u);
  const auto report = c.check_virtual_synchrony();
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(ConsensusTail, SiteWithoutThePayloadLearnsALostLastSlot) {
  expect_lost_last_slot_learnt(DetectorImpl::kHeartbeat);
}

TEST(ConsensusTail, SiteWithoutThePayloadLearnsALostLastSlotUnderSwim) {
  expect_lost_last_slot_learnt(DetectorImpl::kSwim);
}

// The heartbeat detector's idle links carry nothing, so a site that lost
// the whole last slot (as above) hears of the group's frontier only from
// a header after it has heard nothing for cs_retry_timeout. No DECIDE can
// still be on its way then, so it pulls at its next retry tick instead of
// waiting another cs_retry_timeout: it learns the slot within one silence,
// one detector tick, one retry tick and a few hops of the group's
// decision.
TEST(QuietPull, SiteThatLostTheLastSlotPullsWithoutASecondTimeout) {
  constexpr int kN = 4;
  GcOptions opts;
  VirtualCluster c(kN, opts);
  const auto now_us = [&c] {
    return std::chrono::duration_cast<std::chrono::microseconds>(c.clock.now().time_since_epoch())
        .count();
  };
  std::optional<SiteId> owner;
  std::optional<SiteId> cut;
  long long decided_at = -1;
  long long learnt_at = -1;
  const auto has_last = [](GroupNode& n) { return count_of(n.sink().adelivered(), "last") > 0; };
  c.run([&] {
    c.script.schedule(1000us, [&] {
      for (auto& n : c.nodes) n->abcast("before-" + std::to_string(n->id().value()));
    });
    c.script.schedule(10000us, [&] {
      const std::uint64_t slot = c[0].ab().next_instance();
      const View view = c[0].membership().view_snapshot();
      owner = view.member_at(slot);
      cut = view.member_at(slot + 1);
      c.net.set_partitioned_oneway(*owner, *cut, true);
      c[owner->value()].abcast("last");
    });
    c.script.schedule(12000us, [&] { c[owner->value()].crash(); });
    c.script.schedule_periodic(100us, [&] {
      if (!owner) return;
      for (auto& n : c.nodes) {
        if (decided_at < 0 && n->id() != *cut && has_last(*n)) decided_at = now_us();
      }
      if (learnt_at < 0 && has_last(c[cut->value()])) {
        learnt_at = now_us();
        c.shut_down();
      }
    });
    c.script.schedule(200000us, [&] { c.shut_down(); });
  });

  ASSERT_TRUE(cut.has_value());
  ASSERT_GE(decided_at, 0);
  ASSERT_GE(learnt_at, 0) << "site " << cut->value() << " never learnt the last slot";
  const long long bound = opts.cs_retry_timeout.count() + opts.heartbeat_interval.count() +
                          opts.cs_retry_interval.count() + 1000;
  EXPECT_LE(learnt_at - decided_at, bound);
  EXPECT_EQ(c.failed_computations(), 0u);
}

// A live site that the group evicts keeps probing its former peers under
// SWIM, and their acks' headers carry frontiers past its own. It must not pull the
// slots decided after its eviction: it would deliver messages of views it
// is not a member of.
TEST(ConsensusTail, EvictedLiveSiteDoesNotPullLaterSlots) {
  GcOptions opts;
  opts.detector_impl = DetectorImpl::kSwim;
  VirtualCluster c(4, opts);
  GroupNode& evicted = c[3];
  const SiteId evicted_id = evicted.id();
  std::size_t delivered_at_eviction = 0;
  std::uint64_t pulls_at_eviction = 0;
  c.run([&] {
    c.script.schedule(1000us, [&] { c[0].abcast("before"); });
    c.script.schedule(5000us, [&] { c[0].request_leave(evicted_id); });
    c.script.schedule(10000us, [&] {
      delivered_at_eviction = evicted.sink().adelivered().size();
      pulls_at_eviction = evicted.consensus().decision_pulls();
      for (int i = 0; i < 3; ++i) c[i].abcast("after-" + std::to_string(i));
    });
    // Several retry timeouts after the group decided the later slots.
    c.script.schedule(60000us, [&] { c.shut_down(); });
  });

  ASSERT_FALSE(evicted.membership().view_snapshot().contains(evicted_id));
  ASSERT_EQ(delivered_at_eviction, 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c[i].sink().adelivered().size(), 4u) << "site " << i;
  }
  EXPECT_GT(evicted.transport().peer_frontier(), evicted.ab().next_instance())
      << "the evicted site never heard a frontier past its own";
  EXPECT_EQ(evicted.consensus().decision_pulls(), pulls_at_eviction);
  EXPECT_EQ(evicted.sink().adelivered().size(), delivered_at_eviction);
  EXPECT_EQ(c.failed_computations(), 0u);
  // No vs check: its no-lost-delivery rule expects every live incarnation
  // to drain the whole order, which a live site evicted for good never does.
}

// --- The rejoined-proposer filter's one remaining path ------------------------

// Site 3 crashes and restarts without being evicted, so it stays in the
// origin's view and the origin keeps retransmitting its unacked copy of
// "pre", which the group delivered meanwhile. The origin -> 3 link is cut
// until the rejoin (View::with of a current member) has installed a view at
// site 3, so the restarted stack cannot ack and discard the copy first; the
// retransmission after the heal is accepted as new. Without the filter site
// 3 proposes "pre" again and delivers it at a second position.
TEST(RejoinedProposer, UnevictedRestartDoesNotProposeAPreCrashCopy) {
  constexpr int kN = 4;
  VirtualCluster c(kN);
  GroupNode& origin = c[0];
  GroupNode& restarted = c[kN - 1];
  bool installed_before_heal = false;
  std::uint64_t retransmissions_at_heal = 0;
  c.run([&] {
    c.script.schedule(10000us, [&] {
      c.net.set_partitioned_oneway(origin.id(), restarted.id(), true);
      origin.abcast("pre");
    });
    c.script.schedule(10500us, [&] { restarted.crash(); });
    c.script.schedule(12000us, [&] { restarted.restart(); });
    c.script.schedule(13000us, [&] { c[1].request_join(restarted.id()); });
    c.script.schedule(16000us, [&] {
      installed_before_heal = restarted.membership().view_snapshot().contains(origin.id());
      retransmissions_at_heal = origin.rel_comm().retransmissions_to(restarted.id());
      c.net.set_partitioned_oneway(origin.id(), restarted.id(), false);
    });
    // Later traffic, so that slots the rejoined site owns come round.
    for (int k = 0; k < 4; ++k) {
      c.script.schedule(std::chrono::microseconds(30000 + 2000 * k), [&, k] {
        for (auto& n : c.nodes) n->abcast("post-" + std::to_string(k));
      });
    }
    c.script.schedule(100000us, [&] { c.shut_down(); });
  });

  ASSERT_EQ(restarted.rejoins_completed(), 1u);
  ASSERT_TRUE(installed_before_heal) << "the rejoin must install a view before the copy arrives";
  EXPECT_GT(origin.rel_comm().retransmissions_to(restarted.id()), retransmissions_at_heal)
      << "the origin never retransmitted its pre-crash copy after the heal";
  EXPECT_EQ(count_of(origin.sink().adelivered(), "pre"), 1);
  EXPECT_EQ(count_of(restarted.sink().adelivered(), "pre"), 0)
      << "pre-join history delivered again";
  EXPECT_EQ(restarted.sink().adelivered().size(), static_cast<std::size_t>(4 * kN));
  EXPECT_EQ(c.failed_computations(), 0u);
  const auto report = c.check_virtual_synchrony();
  EXPECT_TRUE(report.ok()) << report.describe();
}

// --- RelComm across an unevicted restart --------------------------------------

// Site 3 rbcasts, crashes, restarts without being evicted and is rejoined
// through View::with of a current member, so its peers keep the dedup sets
// of its first incarnation. Its next rbcast must still reach every member
// exactly once: each incarnation numbers its RelComm sends from a range of
// its own.
TEST(RelCommRestart, UnevictedRestartedSiteIsNotTakenForItsOldIncarnation) {
  constexpr int kN = 4;
  VirtualCluster c(kN);
  GroupNode& restarted = c[kN - 1];
  c.run([&] {
    c.script.schedule(1000us, [&] { restarted.rbcast("first"); });
    c.script.schedule(5000us, [&] { restarted.crash(); });
    c.script.schedule(6000us, [&] { restarted.restart(); });
    c.script.schedule(7000us, [&] { c[1].request_join(restarted.id()); });
    c.script.schedule(15000us, [&] { restarted.rbcast("second"); });
    c.script.schedule(60000us, [&] { c.shut_down(); });
  });

  ASSERT_EQ(restarted.rejoins_completed(), 1u);
  for (auto& n : c.nodes) {
    EXPECT_EQ(count_of(n->sink().rdelivered(), "second"), 1) << "site " << n->id().value();
  }
  EXPECT_EQ(c.failed_computations(), 0u);
}

// --- Liveness where consensus waits -----------------------------------------

/// What reached a raw peer: heartbeat requests and plain heartbeats.
struct RawPeer {
  SiteId id;
  std::atomic<int> requests{0};
  std::atomic<int> heartbeats{0};
};

/// Add to `c`'s view a raw peer site, not a GroupNode: it sends only what
/// the test makes it send, and counts the heartbeats that reach it. A peer
/// that `answers` answers every request at once, as a live stack would.
SiteId add_raw_peer(VirtualCluster& c, RawPeer& peer, bool answers = false) {
  peer.id = c.net.add_site([&c, &peer, answers](const net::Packet& p) {
    const Wire wire = net::decode_wire(p.payload).wire;
    const auto* beat = std::get_if<FdHeartbeat>(&wire);
    if (beat == nullptr) return;
    if (!beat->request) {
      ++peer.heartbeats;
      return;
    }
    ++peer.requests;
    if (answers) c.net.send(peer.id, p.from, net::encode_wire(peer.id, 0, Wire{FdHeartbeat{}}));
  });
  c.members.push_back(peer.id);
  return peer.id;
}

/// A packet from raw peer `from` to `node`, encoded as Transport would.
void send_raw(VirtualCluster& c, SiteId from, GroupNode& node, const Wire& wire) {
  c.net.send(from, node.id(), net::encode_wire(from, 0, wire));
}

// Until 40 ms the busy peer sends the node a PREPARE for an unused
// instance every millisecond, and the node answers it with a PROMISE. The
// idle peer sends nothing. The node has no open instance, so it waits on
// nobody, and it is never without a packet for cs_retry_timeout: neither
// link carries a heartbeat, and neither peer is suspected, although the
// idle one is silent for ten fd_timeouts.
TEST(PacketLiveness, IdlePeerGetsNoHeartbeatAndIsNeverSuspected) {
  GcOptions opts;
  opts.heartbeat_interval = 2000us;
  opts.fd_timeout = 4000us;
  VirtualCluster c(1, opts);
  GroupNode& node = c[0];
  RawPeer busy;
  RawPeer idle;
  add_raw_peer(c, busy);
  add_raw_peer(c, idle);
  bool ever_suspected = false;
  c.run([&] {
    for (int k = 1; k <= 40; ++k) {
      c.script.schedule(std::chrono::microseconds(1000 * k), [&, k] {
        send_raw(c, busy.id, node, Wire{CsPrepare{1000u + static_cast<std::uint64_t>(k), 1}});
      });
    }
    c.script.schedule_periodic(500us, [&] {
      ever_suspected = ever_suspected || node.fd().is_suspected(busy.id) ||
                       node.fd().is_suspected(idle.id);
    });
    c.script.schedule(41000us, [&] { c.shut_down(); });
  });

  EXPECT_EQ(idle.requests.load() + idle.heartbeats.load(), 0);
  EXPECT_EQ(busy.requests.load() + busy.heartbeats.load(), 0);
  EXPECT_FALSE(ever_suspected);
  EXPECT_EQ(node.fd().suspicions(), 0u);
  EXPECT_EQ(c.failed_computations(), 0u);
}

// The view is {node, p1, p2}; neither raw peer answers. At 1 ms the node
// abcasts, and its instance for slot 1 waits on p1, slot 1's owner. The
// ticks run every 2 ms, and fd_timeout is 4 ms. The tick at 2 ms asks p1,
// and the one at 4 ms finds it unanswered and silent since the view
// install: p1 is suspected, and the instance moves on to p2. The same
// happens to p2 at 6 and 8 ms, and the instance's next coordinator is the
// node itself. p1's RcAck, arriving at 9.1 ms, revokes its suspicion; p2,
// never heard from, stays suspected, and nobody waits on either any more.
TEST(PacketLiveness, AnyPacketRefreshesLivenessAndRevokesASuspicion) {
  GcOptions opts;
  opts.heartbeat_interval = 2000us;
  opts.fd_timeout = 4000us;
  opts.cs_retry_timeout = 1000000us;  // no retry, and no idle probe
  VirtualCluster c(1, opts);
  GroupNode& node = c[0];
  RawPeer p1;
  RawPeer p2;
  add_raw_peer(c, p1);
  add_raw_peer(c, p2);
  std::vector<bool> suspected;  // p1, sampled at 3.5, 4.5, 9.5 and 12.5 ms
  const auto sample = [&] { suspected.push_back(node.fd().is_suspected(p1.id)); };
  c.run([&] {
    c.script.schedule(1000us, [&] { node.abcast("m"); });
    c.script.schedule(3500us, sample);
    c.script.schedule(4500us, sample);
    c.script.schedule(9000us, [&] { send_raw(c, p1.id, node, Wire{RcAck{7}}); });
    c.script.schedule(9500us, sample);
    c.script.schedule(12500us, [&] {
      sample();
      c.shut_down();
    });
  });

  EXPECT_EQ(suspected, (std::vector<bool>{false, true, false, false}));
  EXPECT_TRUE(node.fd().is_suspected(p2.id));
  EXPECT_EQ(node.fd().suspicions(), 2u);
  EXPECT_EQ(node.fd().suspicion_revocations(), 1u);
  // One request each, while its instance waited on it.
  EXPECT_EQ(p1.requests.load(), 1);
  EXPECT_EQ(p2.requests.load(), 1);
  EXPECT_EQ(p1.heartbeats.load() + p2.heartbeats.load(), 0);
  EXPECT_EQ(c.failed_computations(), 0u);
}

// As above, but p1 is live: it answers every request at once, and sends
// nothing else, so the node's instance waits on it for the whole run. The
// node asks it at each tick that finds it silent for an interval: at 2, 6,
// ..., 18 ms. Each answer arrives 0.2 ms later, so the next tick finds it
// silent for only 1.8 ms, and no tick suspects it. p2, on which nothing
// waits, is asked nothing.
TEST(PacketLiveness, WaitingSiteAsksItsSilentCoordinatorEveryInterval) {
  GcOptions opts;
  opts.heartbeat_interval = 2000us;
  opts.fd_timeout = 4000us;
  opts.cs_retry_timeout = 1000000us;  // no retry, and no idle probe
  VirtualCluster c(1, opts);
  GroupNode& node = c[0];
  RawPeer p1;
  RawPeer p2;
  add_raw_peer(c, p1, /*answers=*/true);
  add_raw_peer(c, p2, /*answers=*/true);
  bool ever_suspected = false;
  c.run([&] {
    c.script.schedule(1000us, [&] { node.abcast("m"); });
    c.script.schedule_periodic(500us, [&] {
      ever_suspected = ever_suspected || node.fd().is_suspected(p1.id);
    });
    c.script.schedule(21000us, [&] { c.shut_down(); });
  });

  EXPECT_EQ(p1.requests.load(), 5);
  EXPECT_EQ(p2.requests.load(), 0);
  EXPECT_FALSE(ever_suspected);
  EXPECT_EQ(node.fd().suspicions(), 0u);
  EXPECT_EQ(c.failed_computations(), 0u);
}

// Four sites. The owner of the next slot crashes, unevicted, at 10 ms,
// after the group has been quiet for 8 ms; at 15 ms a survivor abcasts, and
// every survivor's instance for that slot waits on the crashed owner. Each
// survivor must suspect it within fd_timeout plus one heartbeat interval
// of the wait's start, and the instance must move on: every survivor
// delivers the message.
TEST(PacketLiveness, CrashedCoordinatorIsSuspectedAndTheInstanceMovesOn) {
  GcOptions opts;
  opts.heartbeat_interval = 2000us;
  opts.fd_timeout = 4000us;
  VirtualCluster c(4, opts);
  const auto now_us = [&c] {
    return std::chrono::duration_cast<std::chrono::microseconds>(c.clock.now().time_since_epoch())
        .count();
  };
  std::optional<SiteId> owner;
  long long wait_from = -1;
  std::vector<long long> suspected_at(4, -1);
  c.run([&] {
    c.script.schedule(1000us, [&] { c[0].abcast("before"); });
    c.script.schedule(10000us, [&] {
      owner = c[0].membership().view_snapshot().member_at(c[0].ab().next_instance());
      c[owner->value()].crash();
    });
    c.script.schedule(15000us, [&] {
      wait_from = now_us();
      c[(owner->value() + 1) % 4].abcast("after");
    });
    c.script.schedule_periodic(100us, [&] {
      if (wait_from < 0) return;
      for (int i = 0; i < 4; ++i) {
        if (suspected_at[i] < 0 && c[i].fd().is_suspected(*owner)) suspected_at[i] = now_us();
      }
    });
    c.script.schedule(60000us, [&] { c.shut_down(); });
  });

  ASSERT_TRUE(owner.has_value());
  // The payload's hop to the other survivors, then the timeout and one
  // interval, then the poll.
  const long long bound = 100 + opts.fd_timeout.count() + opts.heartbeat_interval.count() + 100;
  for (int i = 0; i < 4; ++i) {
    if (SiteId(i) == *owner) continue;
    ASSERT_GE(suspected_at[i], 0) << "site " << i << " never suspected the crashed coordinator";
    EXPECT_LE(suspected_at[i] - wait_from, bound) << "site " << i;
    EXPECT_EQ(payloads(c[i].sink().adelivered()), (std::vector<std::string>{"before", "after"}))
        << "site " << i;
    for (int j = 0; j < 4; ++j) {
      if (SiteId(j) == *owner) continue;
      EXPECT_FALSE(c[i].fd().is_suspected(SiteId(j))) << "site " << i << " suspects " << j;
    }
  }
  EXPECT_EQ(c.failed_computations(), 0u);
}

// Three sites keep abcasting after the fourth crashes, unevicted, at
// 10 ms. Nothing arrives from it, and every fourth slot is its own, so each
// survivor's instance soon waits on it. Each must suspect it within the
// 2 ms of silence that sends the first request, then one heartbeat
// interval, or fd_timeout after its last packet if that is later; no live
// site may be suspected.
TEST(PacketLiveness, CrashedPeerIsSuspectedWhileTheOthersKeepTalking) {
  GcOptions opts;
  opts.heartbeat_interval = 2000us;
  opts.fd_timeout = 4000us;
  VirtualCluster c(4, opts);
  GroupNode& crashed = c[3];
  const auto now_us = [&c] {
    return std::chrono::duration_cast<std::chrono::microseconds>(c.clock.now().time_since_epoch())
        .count();
  };
  long long crashed_at = -1;
  std::vector<long long> suspected_at(3, -1);
  std::vector<bool> suspected_before(3, false);
  c.run([&] {
    for (int k = 0; k < 60; ++k) {
      c.script.schedule(std::chrono::microseconds(500 + 500 * k),
                        [&c, k] { c[k % 3].abcast(std::string("m").append(std::to_string(k))); });
    }
    c.script.schedule(10000us, [&] {
      for (int i = 0; i < 3; ++i) suspected_before[i] = c[i].fd().is_suspected(crashed.id());
      crashed_at = now_us();
      crashed.crash();
    });
    c.script.schedule_periodic(100us, [&] {
      if (crashed_at < 0) return;
      for (int i = 0; i < 3; ++i) {
        if (suspected_at[i] < 0 && c[i].fd().is_suspected(crashed.id())) suspected_at[i] = now_us();
      }
    });
    c.script.schedule(40000us, [&] { c.shut_down(); });
  });

  // Link latency, then the timeout and one interval, then the poll.
  const long long bound = 100 + opts.fd_timeout.count() + opts.heartbeat_interval.count() + 100;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(suspected_before[i]) << "site " << i;
    ASSERT_GE(suspected_at[i], 0) << "site " << i << " never suspected the crashed site";
    EXPECT_LE(suspected_at[i] - crashed_at, bound) << "site " << i;
    EXPECT_FALSE(c[i].fd().is_suspected(c[(i + 1) % 3].id())) << "site " << i;
  }
  EXPECT_EQ(c.failed_computations(), 0u);
}

// --- Malformed datagrams -------------------------------------------------------

// The raw peer sends site 0 one datagram of garbage (an unknown tag) and
// one valid encoding cut short. Neither decodes, so site 0 drops both like
// lost packets and counts them; no computation runs for them, none fails,
// and a later abcast still reaches every site.
TEST(MalformedDatagram, IsDroppedAndCounted) {
  GcOptions opts;
  opts.fd_timeout = 1000000us;  // the raw peer answers no heartbeat request
  VirtualCluster c(3, opts);
  RawPeer raw;
  const SiteId peer = add_raw_peer(c, raw);
  std::vector<std::uint8_t> truncated = net::encode_wire(peer, 0, Wire{CsPrepare{7, 1}});
  truncated.pop_back();
  c.run([&] {
    c.script.schedule(1000us, [&] { c.net.send(peer, c[0].id(), {0x03, 0x00, 0xC8, 0x13}); });
    c.script.schedule(2000us, [&] { c.net.send(peer, c[0].id(), truncated); });
    c.script.schedule(3000us, [&] { c[1].abcast("after"); });
    c.script.schedule(30000us, [&] { c.shut_down(); });
  });

  EXPECT_EQ(c[0].malformed_packets(), 2u);
  EXPECT_EQ(c[1].malformed_packets(), 0u);
  EXPECT_EQ(c.failed_computations(), 0u);
  for (auto& n : c.nodes) {
    EXPECT_EQ(payloads(n->sink().adelivered()), std::vector<std::string>{"after"})
        << "site " << n->id().value();
  }
}

// Each failure detector's packets reach only a node built with it. The raw
// peer sends site 0 every packet kind of the detector site 0 was not
// built with; site 0 drops each like a lost packet and counts it, no
// computation fails, and a later abcast still reaches every site.
void expect_other_detectors_packets_dropped(DetectorImpl built, const std::vector<Wire>& sent) {
  GcOptions opts;
  opts.detector_impl = built;
  opts.fd_timeout = 1000000us;  // the raw peer answers no heartbeat request
  VirtualCluster c(3, opts);
  RawPeer raw;
  const SiteId peer = add_raw_peer(c, raw);
  c.run([&] {
    for (std::size_t k = 0; k < sent.size(); ++k) {
      c.script.schedule(std::chrono::microseconds(1000 * (k + 1)),
                        [&, k] { send_raw(c, peer, c[0], sent[k]); });
    }
    c.script.schedule(5000us, [&] { c[1].abcast("after"); });
    c.script.schedule(30000us, [&] { c.shut_down(); });
  });

  EXPECT_EQ(c[0].malformed_packets(), sent.size());
  EXPECT_EQ(c[1].malformed_packets(), 0u);
  EXPECT_EQ(c.failed_computations(), 0u);
  for (auto& n : c.nodes) {
    EXPECT_EQ(payloads(n->sink().adelivered()), std::vector<std::string>{"after"})
        << "site " << n->id().value();
  }
}

TEST(MalformedDatagram, SwimPacketsAtAHeartbeatNodeAreDroppedAndCounted) {
  expect_other_detectors_packets_dropped(DetectorImpl::kHeartbeat,
                                         {Wire{SwimPing{1, {}}}, Wire{SwimAck{1, SiteId{1}, {}}},
                                          Wire{SwimPingReq{1, SiteId{1}, {}}}});
}

TEST(MalformedDatagram, HeartbeatAtASwimNodeIsDroppedAndCounted) {
  expect_other_detectors_packets_dropped(DetectorImpl::kSwim, {Wire{FdHeartbeat{}}});
}

}  // namespace
}  // namespace samoa::gc
