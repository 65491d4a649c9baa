#include "net/sim_network.hpp"

#include <algorithm>
#include <charconv>
#include <string>

#include "core/errors.hpp"

namespace samoa::net {

namespace {
std::uint64_t pack_pair(SiteId a, SiteId b) {
  return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
}

long event_us(Clock::time_point at) {
  return static_cast<long>(
      std::chrono::duration_cast<std::chrono::microseconds>(at.time_since_epoch()).count());
}
}  // namespace

SimNetwork::SimNetwork(LinkOptions defaults, std::uint64_t seed, time::ClockSource* clock)
    : clock_(clock != nullptr ? *clock : time::wall_clock()),
      defaults_(defaults),
      rng_(seed),
      registration_(clock_.add_source(*this)) {}

SimNetwork::~SimNetwork() {
  // First: waits out a running delivery, and none fires afterwards. The
  // registration stays valid, so that delivery may still send().
  registration_->close();
}

SiteId SimNetwork::add_site(DeliveryFn deliver) {
  std::unique_lock lock(mu_);
  sites_.push_back(std::move(deliver));
  lanes_.emplace_back();
  return SiteId(static_cast<SiteId::value_type>(sites_.size() - 1));
}

bool SimNetwork::push_packet(InFlight item) {
  Lane& lane = lanes_[item.packet.to.value()];
  const bool new_lane_head =
      lane.q.empty() || std::tie(item.deliver_at, item.seq) <
                            std::tie(lane.q.top().deliver_at, lane.q.top().seq);
  const HeadRef ref{item.deliver_at, item.seq, item.packet.to.value()};
  lane.q.push(std::move(item));
  ++in_flight_count_;
  if (!new_lane_head) return false;  // lane head unchanged: its claim stands
  // Prune before comparing: a stale top claim (for an already-delivered
  // packet) sorts below every live one and would mask a genuinely new
  // global earliest — a missed reschedule of the clock.
  prune_heads();
  const bool new_global_head = heads_.empty() || heads_.top() > ref;
  heads_.push(ref);
  return new_global_head;
}

void SimNetwork::prune_heads() {
  while (!heads_.empty()) {
    const HeadRef& top = heads_.top();
    const Lane& lane = lanes_[top.dest];
    if (!lane.q.empty() && lane.q.top().deliver_at == top.deliver_at &&
        lane.q.top().seq == top.seq) {
      return;
    }
    heads_.pop();
  }
}

Clock::time_point SimNetwork::earliest_deadline() {
  prune_heads();
  return heads_.empty() ? Clock::time_point::max() : heads_.top().deliver_at;
}

void SimNetwork::set_delivery_hook(DeliveryHook* hook) {
  std::unique_lock lock(mu_);
  hook_ = hook;
}

void SimNetwork::enable_event_log(bool store_lines) {
  std::unique_lock lock(mu_);
  log_events_ = true;
  log_store_ = store_lines;
}

std::vector<std::string> SimNetwork::event_log() const {
  std::unique_lock lock(mu_);
  return event_log_;
}

std::uint64_t SimNetwork::event_hash() const {
  std::unique_lock lock(mu_);
  return event_hash_;
}

void SimNetwork::note_event(std::string_view line) {
  for (const unsigned char c : line) {
    event_hash_ ^= c;
    event_hash_ *= 1099511628211ull;
  }
  event_hash_ ^= static_cast<unsigned char>('\n');
  event_hash_ *= 1099511628211ull;
  if (log_store_) event_log_.emplace_back(line);
}

const LinkOptions& SimNetwork::link_for(SiteId from, SiteId to) const {
  auto it = links_.find(pack_pair(from, to));
  return it == links_.end() ? defaults_ : it->second;
}

void SimNetwork::send(SiteId from, SiteId to, std::vector<std::uint8_t> payload) {
  std::unique_lock lock(mu_);
  stats_.sent.add();
  const bool unknown = to.value() >= sites_.size();
  const bool blocked = crashed_.contains(from) || crashed_.contains(to) ||
                       partitioned_.contains(pack_pair(from, to));
  // A site's link to itself is local, as loopback is on any host: zero
  // latency, no loss and no RNG draw, whatever the defaults say (set_link
  // refuses to override it). The packet still goes through the lanes, so
  // a DeliveryHook orders it like any other.
  bool chance_drop = false;
  std::chrono::microseconds latency{0};
  if (from != to) {
    const LinkOptions& link = link_for(from, to);
    // RNG stream contract: every send between two sites consumes the
    // draws its link options call for (one Bernoulli draw for loss, one
    // bounded draw for jitter), whether or not the packet is discarded
    // for an unknown destination, crash or partition. The stream is then
    // a pure function of (seed, link options, sequence of sends between
    // sites) and replays stay aligned across fault states.
    chance_drop = rng_.chance(link.drop_probability);
    latency = link.base_latency;
    if (link.jitter.count() > 0) {
      latency += std::chrono::microseconds(
          rng_.next_below(static_cast<std::uint64_t>(link.jitter.count()) + 1));
    }
  }
  if (unknown || blocked || chance_drop) {
    stats_.dropped.add();
    return;
  }
  const bool new_earliest = push_packet(
      InFlight{clock_.now() + latency, next_seq_++, Packet{from, to, std::move(payload)}});
  // The clock only needs to re-read the head when the global earliest
  // changed; a packet queued behind others cannot make its deadline
  // overshoot, and skipping the call keeps broadcast storms from costing
  // the clock O(packets) head reads.
  if (!new_earliest) return;
  lock.unlock();
  // With mu_ released: the clock reads next_deadline() under its own mutex.
  registration_->reschedule();
}

void SimNetwork::set_link(SiteId from, SiteId to, LinkOptions opts) {
  if (from == to) throw ConfigError("SimNetwork::set_link: a site's link to itself is local");
  std::unique_lock lock(mu_);
  links_[pack_pair(from, to)] = opts;
}

void SimNetwork::set_partitioned(SiteId a, SiteId b, bool partitioned) {
  std::unique_lock lock(mu_);
  if (partitioned) {
    partitioned_.insert(pack_pair(a, b));
    partitioned_.insert(pack_pair(b, a));
  } else {
    partitioned_.erase(pack_pair(a, b));
    partitioned_.erase(pack_pair(b, a));
  }
}

void SimNetwork::set_partitioned_oneway(SiteId from, SiteId to, bool partitioned) {
  std::unique_lock lock(mu_);
  if (partitioned) {
    partitioned_.insert(pack_pair(from, to));
  } else {
    partitioned_.erase(pack_pair(from, to));
  }
}

void SimNetwork::crash(SiteId site) {
  std::unique_lock lock(mu_);
  crashed_.insert(site);
}

bool SimNetwork::crashed(SiteId site) const {
  std::unique_lock lock(mu_);
  return crashed_.contains(site);
}

void SimNetwork::recover(SiteId site) {
  std::unique_lock lock(mu_);
  if (crashed_.erase(site) > 0) stats_.recoveries.add();
}

void SimNetwork::attach(SiteId site, DeliveryFn deliver) {
  std::unique_lock lock(mu_);
  if (site.value() >= sites_.size()) return;  // unknown site: ignore
  sites_[site.value()] = std::move(deliver);
}

LinkOptions SimNetwork::defaults() const {
  std::unique_lock lock(mu_);
  return defaults_;
}

void SimNetwork::set_defaults(LinkOptions defaults) {
  std::unique_lock lock(mu_);
  defaults_ = defaults;
}

void SimNetwork::detach(SiteId site) {
  std::unique_lock lock(mu_);
  crashed_.insert(site);
  cv_.wait(lock, [&] { return delivering_ != site; });
  if (site.value() < sites_.size()) sites_[site.value()] = nullptr;
}

void SimNetwork::drain() {
  std::unique_lock lock(mu_);
  // A delivery callback runs with mu_ released and may send() new packets
  // before it returns; `delivering_` stays set for its whole execution, so
  // waiting on it closes the window in which the queue looks empty while
  // deliveries are still producing work.
  cv_.wait(lock, [this] { return in_flight_count_ == 0 && !delivering_.valid(); });
}

void SimNetwork::deliver_from_lane(std::unique_lock<std::mutex>& lock, std::size_t lane_ix) {
  Lane& lane = lanes_[lane_ix];
  // Move the head out before popping: pop() compares only deliver_at and
  // seq, which the move leaves intact.
  InFlight item = std::move(const_cast<InFlight&>(lane.q.top()));
  lane.q.pop();
  --in_flight_count_;
  // Re-claim the lane's next head so the merge invariant (every non-empty
  // lane's head has a live claim) is restored; any claim for the popped
  // head goes stale and is discarded lazily by prune_heads().
  if (!lane.q.empty()) {
    heads_.push(HeadRef{lane.q.top().deliver_at, lane.q.top().seq, lane_ix});
  }
  // Late crash check: packets in flight to a site that crashed meanwhile
  // are lost (the site is gone).
  const bool lost =
      crashed_.contains(item.packet.to) || sites_[item.packet.to.value()] == nullptr;
  if (log_events_) {
    // "<deliver_at us>[ x] <from>><to> #<seq>", formatted on the stack:
    // perfbench keeps the hash-only log on for every delivery.
    char line[96];
    std::size_t len = 0;
    const auto put = [&](std::string_view text) {
      len += text.copy(line + len, sizeof(line) - len);
    };
    const auto put_number = [&](auto value) {
      len = static_cast<std::size_t>(
          std::to_chars(line + len, line + sizeof(line), value).ptr - line);
    };
    put_number(event_us(item.deliver_at));
    put(lost ? " x " : " ");
    put_number(item.packet.from.value());
    put(">");
    put_number(item.packet.to.value());
    put(" #");
    put_number(item.seq);
    note_event(std::string_view(line, len));
  }
  if (lost) {
    stats_.dropped.add();
    if (in_flight_count_ == 0) cv_.notify_all();
    return;
  }
  DeliveryFn deliver = sites_[item.packet.to.value()];
  delivering_ = item.packet.to;
  lock.unlock();
  deliver(item.packet);
  lock.lock();
  delivering_ = SiteId{};
  stats_.delivered.add();
  cv_.notify_all();
}

void SimNetwork::step_explored(std::unique_lock<std::mutex>& lock, Clock::time_point now) {
  // Every due lane head is a candidate (one per lane: the per-destination
  // FIFO within a lane is not a choice).
  struct Candidate {
    Clock::time_point at;
    std::uint64_t seq;
    std::size_t lane;
  };
  std::vector<Candidate> cands;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].q.empty() && lanes_[i].q.top().deliver_at <= now) {
      cands.push_back(Candidate{lanes_[i].q.top().deliver_at, lanes_[i].q.top().seq, i});
    }
  }
  // The caller established that something is due, so cands is non-empty.
  std::size_t pick = 0;
  if (cands.size() >= 2) {
    // Present candidates in natural (deliver_at, seq) order: index 0 is
    // exactly the default merge choice, so a hook that always picks 0
    // reproduces the unexplored delivery order, and shrinking a trace
    // toward all-zeros shrinks toward the natural schedule.
    std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
      return std::tie(a.at, a.seq) < std::tie(b.at, b.seq);
    });
    std::vector<std::uint64_t> keys;
    keys.reserve(cands.size());
    for (const Candidate& c : cands) keys.push_back(c.lane);
    pick = std::min(hook_->choose(keys), cands.size() - 1);
  }
  deliver_from_lane(lock, cands[pick].lane);
}

Clock::time_point SimNetwork::next_deadline() {
  std::unique_lock lock(mu_);
  return earliest_deadline();
}

void SimNetwork::fire(Clock::time_point now) {
  std::unique_lock lock(mu_);
  if (earliest_deadline() > now) return;  // nothing due
  if (hook_ != nullptr) {
    // Exploration: the hook picks among every due lane head.
    step_explored(lock, now);
    return;
  }
  // Default order: the strict (deliver_at, seq) merge of lane heads.
  // earliest_deadline() pruned, so the top claim matches its lane's head:
  // pop the claim and deliver from that lane.
  const HeadRef head = heads_.top();
  heads_.pop();
  deliver_from_lane(lock, head.dest);
}

}  // namespace samoa::net
