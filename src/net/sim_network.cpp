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
  return SiteId(static_cast<SiteId::value_type>(sites_.size() - 1));
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
  // refuses to override it). The packet still goes through the queue, so
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
  const std::uint64_t seq = next_seq_++;
  queue_.push(InFlight{clock_.now() + latency, seq, Packet{from, to, std::move(payload)}});
  // The clock only needs to re-read the head when this packet became the
  // earliest; a packet queued behind others cannot make its deadline
  // overshoot, and skipping the call keeps broadcast storms from costing
  // the clock O(packets) head reads.
  if (queue_.top().seq != seq) return;
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
  cv_.wait(lock, [this] { return queue_.empty() && !delivering_.valid(); });
}

SimNetwork::InFlight SimNetwork::pop_earliest() {
  // Move the top out before popping: pop() compares only deliver_at and
  // seq, which the move leaves intact.
  InFlight item = std::move(const_cast<InFlight&>(queue_.top()));
  queue_.pop();
  return item;
}

void SimNetwork::deliver_popped(std::unique_lock<std::mutex>& lock, InFlight item) {
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
    if (queue_.empty()) cv_.notify_all();
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
  // Pop every due packet in (deliver_at, seq) order. Each destination's
  // first is a candidate, so the keys come in the candidates' natural
  // order and index 0 is exactly the default choice: a hook that always
  // picks 0 reproduces the unexplored delivery order, and shrinking a
  // trace toward all-zeros shrinks toward the natural schedule.
  std::vector<InFlight> due;
  std::vector<std::size_t> firsts;  // index into `due` of each key's packet
  std::vector<std::uint64_t> keys;
  while (!queue_.empty() && queue_.top().deliver_at <= now) {
    due.push_back(pop_earliest());
    const std::uint64_t dest = due.back().packet.to.value();
    if (std::find(keys.begin(), keys.end(), dest) == keys.end()) {
      keys.push_back(dest);
      firsts.push_back(due.size() - 1);
    }
  }
  // The caller established that something is due, so keys is non-empty.
  const std::size_t pick =
      firsts[keys.size() >= 2 ? std::min(hook_->choose(keys), keys.size() - 1) : 0];
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (i != pick) queue_.push(std::move(due[i]));
  }
  deliver_popped(lock, std::move(due[pick]));
}

Clock::time_point SimNetwork::next_deadline() {
  std::unique_lock lock(mu_);
  return queue_.empty() ? Clock::time_point::max() : queue_.top().deliver_at;
}

void SimNetwork::fire(Clock::time_point now) {
  std::unique_lock lock(mu_);
  if (queue_.empty() || queue_.top().deliver_at > now) return;  // nothing due
  if (hook_ != nullptr) {
    // Exploration: the hook picks among the due packets' destinations.
    step_explored(lock, now);
    return;
  }
  deliver_popped(lock, pop_earliest());
}

}  // namespace samoa::net
