// SWIM gossip failure detector (Das, Gupta, Motivala 2002).
//
// Replaces all-to-all heartbeats with constant per-site probe load: every
// protocol period each site pings one randomized round-robin member; if
// the direct ack misses its deadline the prober asks k random proxies to
// ping-req the target on its behalf, and only when the whole period ends
// without any ack does the target become *suspected* — a state, not a
// verdict. A suspicion gossips through the fleet piggybacked on probe
// traffic; the accused refutes by re-announcing itself alive under a
// higher self-issued incarnation number, which outranks the suspicion
// wherever the two race. Suspicions that stand un-refuted for
// kSuspectPeriods harden into confirmed-faulty, which is what feeds
// the Suspect event into the unchanged consensus/view-change machinery.
//
// Dissemination is epidemic: membership updates ride in the spare bytes
// of pings/acks/ping-reqs, each update retransmitted ~3*log2(n) times
// before aging out (the paper's lambda*log n budget). No broadcast, no
// extra messages — detection and dissemination share the same O(n)
// traffic, which is the whole reason this scales where the heartbeat
// detector's O(n^2) does not.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "gc/detector.hpp"
#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class SwimDetector : public GcMicroprotocol, public Detector {
 public:
  SwimDetector(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* on_wire_handler() const { return on_wire_; }
  const Handler* tick_handler() const { return tick_; }
  const Handler* view_change_handler() const { return view_change_; }

  // Detector seam.
  bool is_suspected(SiteId site) override;
  std::uint64_t suspicions() const override { return suspicions_.value(); }
  std::uint64_t suspicion_revocations() const override { return revocations_.value(); }

  /// What this site currently believes about a peer (nullopt: not a
  /// member / self). Test introspection.
  std::optional<SwimStatus> status_of(SiteId site);

  /// This site's own incarnation number (bumped on each self-refutation).
  std::uint64_t incarnation() const;

  // Counters (fleet harness + E-SWIM bench).
  std::uint64_t refutations() const { return refutations_.value(); }
  std::uint64_t confirmations() const { return confirmations_.value(); }
  std::uint64_t probes_sent() const { return probes_sent_.value(); }
  std::uint64_t acks_sent() const { return acks_sent_.value(); }
  std::uint64_t ping_reqs_sent() const { return ping_reqs_sent_.value(); }
  std::uint64_t acks_relayed() const { return acks_relayed_.value(); }
  /// Protocol periods started (the bench's dissemination-round clock).
  std::uint64_t periods() const { return periods_.value(); }
  std::uint64_t updates_piggybacked() const { return updates_piggybacked_.value(); }

 private:
  /// Proxies asked to probe indirectly before suspecting.
  static constexpr std::size_t kIndirectProbes = 3;
  /// Probe periods a suspicion stands before the suspect is confirmed
  /// faulty (time for an alive refutation to gossip back).
  static constexpr std::uint32_t kSuspectPeriods = 3;

  struct Member {
    SwimStatus status = SwimStatus::kAlive;
    std::uint64_t incarnation = 0;
    Clock::time_point suspect_expiry{};
  };
  /// A buffered membership update with its remaining transmit budget.
  struct Gossip {
    SwimUpdate update;
    std::uint32_t sends_left = 0;
  };
  /// The one outstanding direct probe (at most one per period).
  struct Outstanding {
    SiteId target;
    std::uint64_t seq = 0;
    Clock::time_point direct_deadline{};  // miss -> ping-req through proxies
    Clock::time_point period_deadline{};  // miss -> suspect
    bool indirect_sent = false;
    bool active = false;
  };
  /// Proxy-side record of a ping-req being serviced: our own probe seq
  /// maps back to who asked and under which of *their* seqs to answer.
  struct Relay {
    SiteId origin;
    std::uint64_t origin_seq = 0;
    SiteId target;
    Clock::time_point expiry{};
  };

  // All private helpers assume guard() + snap_mu_ are held.
  void apply_update(const SwimUpdate& u, Clock::time_point now, Outbox& out);
  void enqueue_gossip(SwimUpdate u);
  /// Drain up to gossip_budget() updates from the gossip buffer
  /// (freshest-first), decrementing budgets. `refute_hint`: also tell the
  /// addressee what we currently believe about *it* if that is not Alive,
  /// so a suspected/faulty-but-live peer learns it must refute.
  std::vector<SwimUpdate> make_updates(std::optional<SiteId> refute_hint);
  void suspect_locally(SiteId site, Clock::time_point now, Outbox& out);
  std::optional<SiteId> next_probe_target();
  /// Times each membership update is piggybacked before it ages out:
  /// 3 * ceil(log2(view size)), the SWIM paper's lambda*log(n) budget.
  /// It also caps the updates one ping/ack/ping-req carries: a message
  /// holds as many updates as one update needs sends, so a burst of B
  /// rumours leaves a site's buffer in about B messages at any fleet
  /// size. A smaller cap takes B * budget / cap messages, and a mass
  /// crash's rumours then starve behind the backlog.
  std::uint32_t gossip_budget() const;
  Clock::time_point suspect_deadline(Clock::time_point now) const;

  SiteId self_;
  View view_;
  std::uint64_t self_incarnation_ = 0;
  std::unordered_map<SiteId, Member> members_;  // peers only (never self_)
  std::vector<Gossip> gossip_;
  Outstanding probe_;
  std::unordered_map<std::uint64_t, Relay> relays_;
  std::vector<SiteId> probe_order_;
  std::size_t probe_index_ = 0;
  std::uint64_t next_seq_ = 1;
  Clock::time_point next_period_{};
  Rng rng_;

  Counter suspicions_;
  Counter revocations_;
  Counter refutations_;
  Counter confirmations_;
  Counter probes_sent_;
  Counter acks_sent_;
  Counter ping_reqs_sent_;
  Counter acks_relayed_;
  Counter periods_;
  Counter updates_piggybacked_;
  mutable std::mutex snap_mu_;

  const Handler* on_wire_ = nullptr;
  const Handler* tick_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
