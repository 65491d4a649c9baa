#include "fleet.hpp"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "util/rng.hpp"
#include "verify/vs_checker.hpp"

namespace perfbench {

using samoa::gc::GroupNode;

// --- payloads ----------------------------------------------------------------

std::string payload_for(std::size_t msg, std::uint64_t seed) {
  samoa::Rng rng(seed * 0x9E3779B97F4A7C15ull + msg);
  std::string s = "m" + std::to_string(msg) + ".";
  const auto pad = 8 + rng.next_below(25);
  for (std::uint64_t i = 0; i < pad; ++i) s += static_cast<char>('a' + rng.next_below(26));
  return s;
}

bool parse_payload(const std::string& data, std::size_t& msg) {
  if (data.size() < 3 || data[0] != 'm') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(data.c_str() + 1, &end, 10);
  if (end == data.c_str() + 1 || *end != '.') return false;
  msg = static_cast<std::size_t>(v);
  return true;
}

Origins::Origins(int sites, std::uint64_t seed) : order_(sites), state_(seed) {
  for (int i = 0; i < sites; ++i) order_[i] = i;
  pos_ = order_.size();  // shuffle on first use
}

int Origins::next(const std::vector<char>& excluded) {
  for (std::size_t tries = 0; tries < 2 * order_.size(); ++tries) {
    if (pos_ == order_.size()) {
      samoa::Rng rng(state_);
      state_ = rng.next();
      std::shuffle(order_.begin(), order_.end(), rng);
      pos_ = 0;
    }
    const int site = order_[pos_++];
    if (!excluded[site]) return site;
  }
  return -1;
}

// --- CompletionWatcher -------------------------------------------------------

CompletionWatcher::CompletionWatcher() { thread_ = std::thread([this] { loop(); }); }

CompletionWatcher::~CompletionWatcher() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void CompletionWatcher::watch(std::size_t msg, WallClock::time_point call_start,
                              samoa::ComputationHandle handle) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(Item{msg, call_start, std::move(handle)});
  }
  cv_.notify_one();
}

void CompletionWatcher::loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ with nothing left
    Item item = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    bool ok = true;
    bool finished = false;
    while (!finished) {
      try {
        finished = item.handle.wait_for(std::chrono::milliseconds(20));
      } catch (...) {
        ok = false;
        finished = true;
      }
      if (!finished) {
        std::lock_guard check(mu_);
        if (stop_) break;
      }
    }
    const double us = seconds_between(item.start, WallClock::now()) * 1e6;
    lock.lock();
    if (!finished) return;  // shutting down with a computation still running
    if (ok) {
      done_.emplace_back(item.msg, us);
    } else {
      ++failures_;
    }
  }
}

std::vector<double> CompletionWatcher::results(std::size_t messages) const {
  std::vector<double> out(messages, -1.0);
  std::lock_guard lock(mu_);
  for (const auto& [msg, us] : done_) {
    if (msg < messages) out[msg] = us;
  }
  return out;
}

std::size_t CompletionWatcher::failures() const {
  std::lock_guard lock(mu_);
  return failures_;
}

// --- LayerTotals -------------------------------------------------------------

void LayerTotals::add(const LayerTotals& o) {
  admissions += o.admissions;
  admit_slow += o.admit_slow;
  gate_waits += o.gate_waits;
  gate_wait_p50_ns = std::max(gate_wait_p50_ns, o.gate_wait_p50_ns);
  gate_wait_p99_ns = std::max(gate_wait_p99_ns, o.gate_wait_p99_ns);
  computations += o.computations;
  handler_calls += o.handler_calls;
  exec_dispatched += o.exec_dispatched;
  exec_batches += o.exec_batches;
  exec_handoffs += o.exec_handoffs;
  exec_wakeups += o.exec_wakeups;
  exec_overflow += o.exec_overflow;
  exec_queue_depth_p99 = std::max(exec_queue_depth_p99, o.exec_queue_depth_p99);
  if (o.cs_decided_max > cs_decided_max) {
    cs_decided_max = o.cs_decided_max;
    ab_delivered_at_max = o.ab_delivered_at_max;
  }
  cs_rounds += o.cs_rounds;
  cs_decision_pulls += o.cs_decision_pulls;
  rc_retransmissions += o.rc_retransmissions;
  rc_flow_deferred += o.rc_flow_deferred;
  rc_peak_in_flight = std::max(rc_peak_in_flight, o.rc_peak_in_flight);
  fd_suspicions += o.fd_suspicions;
  ticks_coalesced += o.ticks_coalesced;
  rejoins += o.rejoins;
}

LayerTotals LayerTotals::minus(const LayerTotals& b) const {
  LayerTotals d = *this;
  d.admissions -= b.admissions;
  d.admit_slow -= b.admit_slow;
  d.gate_waits -= b.gate_waits;
  d.computations -= b.computations;
  d.handler_calls -= b.handler_calls;
  d.exec_dispatched -= b.exec_dispatched;
  d.exec_batches -= b.exec_batches;
  d.exec_handoffs -= b.exec_handoffs;
  d.exec_wakeups -= b.exec_wakeups;
  d.exec_overflow -= b.exec_overflow;
  d.cs_decided_max -= b.cs_decided_max;
  d.ab_delivered_at_max -= b.ab_delivered_at_max;
  d.cs_rounds -= b.cs_rounds;
  d.cs_decision_pulls -= b.cs_decision_pulls;
  d.rc_retransmissions -= b.rc_retransmissions;
  d.rc_flow_deferred -= b.rc_flow_deferred;
  d.fd_suspicions -= b.fd_suspicions;
  d.ticks_coalesced -= b.ticks_coalesced;
  d.rejoins -= b.rejoins;
  return d;
}

// --- Fleet -------------------------------------------------------------------

Fleet::Fleet(const FleetConfig& cfg, samoa::time::ClockSource& clock, std::uint64_t payload_seed)
    : clock_(clock), net_(cfg.link, cfg.net_seed, &clock), payload_seed_(payload_seed) {
  samoa::gc::GcOptions opts = cfg.opts;
  opts.clock = &clock;
  for (int i = 0; i < cfg.sites; ++i) {
    nodes_.push_back(std::make_unique<GroupNode>(net_, opts));
    logs_.emplace_back();
    alive_.push_back(1);
    wrap_sink(i);
  }
}

Fleet::~Fleet() {
  stop_timers();
  nodes_.clear();  // before the stamp logs their sinks write into
}

void Fleet::wrap_sink(int i) {
  GroupNode& n = *nodes_[i];
  logs_[i].push_back(std::make_unique<StampLog>());
  StampLog* log = logs_[i].back().get();
  samoa::gc::Membership* mb = &n.membership();
  samoa::time::ClockSource* clk = &clock_;
  // Same view id the library's own source reports, plus the stamp.
  n.sink().set_view_source([mb, log, clk] {
    log->push(clk->now());
    return mb->view_snapshot().id();
  });
}

void Fleet::start() {
  std::vector<samoa::SiteId> members;
  for (auto& n : nodes_) members.push_back(n->id());
  for (auto& n : nodes_) n->start(samoa::gc::View(1, members));
  epoch_ = clock_.now();
}

int Fleet::index_of(samoa::SiteId id) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->id() == id) return static_cast<int>(i);
  }
  return -1;
}

double Fleet::ms(Clock::time_point t) const {
  return std::chrono::duration<double, std::milli>(t - epoch_).count();
}

void Fleet::submit(int i, Clock::time_point due) {
  Submission s;
  s.origin = i;
  s.incarnation = logs_[i].size() - 1;
  s.due_ms = ms(due);
  const auto call_clock = clock_.now();
  s.call_start_ms = ms(call_clock);
  s.lag_ms = s.call_start_ms - s.due_ms;
  const std::size_t msg = subs_.size();
  const auto t0 = WallClock::now();
  samoa::ComputationHandle h = nodes_[i]->abcast(payload_for(msg, payload_seed_));
  s.call_us = seconds_between(t0, WallClock::now()) * 1e6;
  subs_.push_back(s);
  watcher_.watch(msg, t0, std::move(h));
}

void Fleet::crash(int i) {
  nodes_[i]->crash();
  alive_[i] = 0;
}

void Fleet::restart(int i) {
  retired_.add(node_totals(i));
  // GroupNode keeps summing these across incarnations itself.
  retired_.rc_retransmissions -= static_cast<double>(nodes_[i]->total_retransmissions());
  retired_.rejoins -= static_cast<double>(nodes_[i]->rejoins_completed());
  retired_.ticks_coalesced -= static_cast<double>(nodes_[i]->ticks_coalesced());
  nodes_[i]->restart();
  wrap_sink(i);
  alive_[i] = 1;
}

std::size_t Fleet::min_survivor_delivered() const {
  std::size_t lo = SIZE_MAX;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (alive_[i] && logs_[i].size() == 1) lo = std::min(lo, logs_[i][0]->size());
  }
  return lo == SIZE_MAX ? 0 : lo;
}

double Fleet::first_delivery_ms(int i) const {
  const auto stamps = logs_[i].back()->snapshot();
  return stamps.empty() ? -1.0 : ms(stamps.front());
}

void Fleet::stop_timers() {
  for (auto& n : nodes_) n->stop_timers();
}

void Fleet::quiesce() {
  std::uint64_t prev = ~std::uint64_t{0};
  for (;;) {
    net_.drain();
    for (auto& n : nodes_) n->drain();
    const auto& st = net_.stats();
    const std::uint64_t total = st.sent.value() + st.delivered.value() + st.dropped.value();
    if (total == prev) break;
    prev = total;
  }
}

void Fleet::halt() {
  // The sites stay "alive" for analyze(): their histories are still the
  // run's outcome, only cut short.
  for (auto& n : nodes_) n->crash();
}

LayerTotals Fleet::node_totals(int i) {
  GroupNode& n = *nodes_[i];
  LayerTotals t;
  const samoa::CCStats& cc = n.runtime().controller().stats();
  t.admissions = static_cast<double>(cc.admissions.value());
  t.admit_slow = static_cast<double>(cc.admit_slow.value());
  t.gate_waits = static_cast<double>(cc.gate_waits.value());
  t.gate_wait_p50_ns = cc.gate_wait_time.quantile_ns(0.5);
  t.gate_wait_p99_ns = cc.gate_wait_time.quantile_ns(0.99);
  t.exec_dispatched = static_cast<double>(cc.exec_dispatched.value());
  t.exec_batches = static_cast<double>(cc.exec_batches.value());
  t.exec_handoffs = static_cast<double>(cc.exec_handoffs.value());
  t.exec_wakeups = static_cast<double>(cc.exec_wakeups.value());
  t.exec_overflow = static_cast<double>(cc.exec_overflow.value());
  t.exec_queue_depth_p99 = cc.exec_queue_depth.quantile_ns(0.99);
  const auto& rs = n.runtime().stats();
  t.computations = static_cast<double>(rs.spawned.value());
  t.handler_calls = static_cast<double>(rs.handler_calls.value());
  t.cs_decided_max = static_cast<double>(n.consensus().decided_count());
  t.ab_delivered_at_max = static_cast<double>(n.ab().delivered());
  t.cs_rounds = static_cast<double>(n.consensus().rounds_started());
  t.cs_decision_pulls = static_cast<double>(n.consensus().decision_pulls());
  t.rc_retransmissions = static_cast<double>(n.total_retransmissions());
  t.rc_flow_deferred = static_cast<double>(n.rel_comm().flow_deferred());
  t.rc_peak_in_flight = static_cast<double>(n.rel_comm().peak_in_flight_per_peer());
  t.fd_suspicions = static_cast<double>(n.detector().suspicions());
  t.ticks_coalesced = static_cast<double>(n.ticks_coalesced());
  t.rejoins = static_cast<double>(n.rejoins_completed());
  return t;
}

LayerTotals Fleet::layer_totals() {
  LayerTotals t = retired_;
  for (int i = 0; i < size(); ++i) t.add(node_totals(i));
  return t;
}

Fleet::Analysis Fleet::analyze(bool check_vs) {
  Analysis a;
  const std::size_t m = subs_.size();
  a.at_origin.assign(m, -1.0);
  a.first.assign(m, -1.0);
  a.last_live.assign(m, -1.0);
  a.delivered.assign(m, 0);

  // Every incarnation's delivered payload sequence, aligned with its stamps.
  struct Inc {
    int site;
    std::size_t incarnation;
    bool live;
    std::vector<std::size_t> msgs;
    std::vector<double> at;
  };
  std::vector<Inc> incs;
  for (int i = 0; i < size(); ++i) {
    GroupNode& n = *nodes_[i];
    std::vector<std::vector<samoa::gc::AppMessage>> seqs;
    for (auto& arc : n.archives()) seqs.push_back(std::move(arc.adelivered));
    // The sink stamps inside the same critical section that appends to
    // adelivered(), so reading the list first and the stamps second can
    // only find extra stamps (deliveries in between), never missing ones.
    seqs.push_back(n.sink().adelivered());
    const auto current_stamps = logs_[i].back()->snapshot();
    for (std::size_t k = 0; k < seqs.size(); ++k) {
      Inc inc{i, k, alive_[i] && k + 1 == seqs.size(), {}, {}};
      const auto stamps = k + 1 == seqs.size() ? current_stamps : logs_[i][k]->snapshot();
      const std::size_t len = std::min(seqs[k].size(), stamps.size());
      if (seqs[k].size() > stamps.size() || (!inc.live && seqs[k].size() != stamps.size())) {
        a.problems.push_back("site " + std::to_string(i) + " incarnation " + std::to_string(k) +
                             ": " + std::to_string(stamps.size()) + " stamps for " +
                             std::to_string(seqs[k].size()) + " adeliveries");
      }
      for (std::size_t j = 0; j < len; ++j) {
        std::size_t msg = 0;
        if (!parse_payload(seqs[k][j].data, msg) || msg >= m) {
          a.problems.push_back("site " + std::to_string(i) + " adelivered a foreign payload");
          ++a.order_mismatches;
          continue;
        }
        inc.msgs.push_back(msg);
        inc.at.push_back(ms(stamps[j]));
      }
      incs.push_back(std::move(inc));
    }
  }

  // Reference order: the longest sequence of a never-crashed live site.
  const Inc* ref = nullptr;
  for (const auto& inc : incs) {
    if (inc.live && inc.incarnation == 0 && (ref == nullptr || inc.msgs.size() > ref->msgs.size())) {
      ref = &inc;
    }
  }
  if (ref == nullptr) {
    a.problems.push_back("no never-crashed live site");
    return a;
  }
  std::unordered_map<std::size_t, std::size_t> pos;  // msg -> reference position
  for (std::size_t j = 0; j < ref->msgs.size(); ++j) {
    if (!pos.emplace(ref->msgs[j], j).second) {
      ++a.duplicates;
      a.problems.push_back("message " + std::to_string(ref->msgs[j]) + " adelivered twice");
    }
  }

  // Every incarnation must be one contiguous window of the reference;
  // initial incarnations start at its head (crashed ones are a prefix).
  for (const auto& inc : incs) {
    if (inc.msgs.empty()) continue;
    const auto it = pos.find(inc.msgs.front());
    const std::size_t start = it == pos.end() ? SIZE_MAX : it->second;
    bool ok = start != SIZE_MAX && (inc.incarnation > 0 || start == 0) &&
              start + inc.msgs.size() <= ref->msgs.size();
    for (std::size_t j = 0; ok && j < inc.msgs.size(); ++j) ok = ref->msgs[start + j] == inc.msgs[j];
    if (!ok) {
      ++a.order_mismatches;
      a.problems.push_back("site " + std::to_string(inc.site) + " incarnation " +
                           std::to_string(inc.incarnation) +
                           " is not a window of the reference total order");
    }
  }

  for (const auto& [msg, at] : pos) a.delivered[msg] = 1;
  for (const auto& inc : incs) {
    const bool survivor = inc.live && inc.incarnation == 0;
    for (std::size_t j = 0; j < inc.msgs.size(); ++j) {
      const std::size_t msg = inc.msgs[j];
      const double t = inc.at[j];
      const Submission& s = subs_[msg];
      if (s.origin == inc.site && s.incarnation == inc.incarnation) a.at_origin[msg] = t;
      if (a.first[msg] < 0 || t < a.first[msg]) a.first[msg] = t;
      if (inc.live) a.last_live[msg] = std::max(a.last_live[msg], t);
      if (survivor) a.survivor_stamps.push_back(t);
      a.deliveries.push_back({inc.site, inc.incarnation, msg, t});
    }
  }
  // A message counts as delivered only once every never-crashed live site
  // has it (live rejoined incarnations are checked as windows above).
  for (const auto& inc : incs) {
    if (!(inc.live && inc.incarnation == 0)) continue;
    std::vector<char> has(m, 0);
    for (std::size_t msg : inc.msgs) has[msg] = 1;
    for (std::size_t msg = 0; msg < m; ++msg) a.delivered[msg] = a.delivered[msg] && has[msg];
  }
  std::sort(a.survivor_stamps.begin(), a.survivor_stamps.end());

  if (const std::size_t n = watcher_.failures(); n > 0) {
    a.problems.push_back(std::to_string(n) + " abcast submit computations failed");
  }
  if (check_vs) {
    std::vector<samoa::verify::IncarnationTrace> traces;
    for (auto& n : nodes_) {
      for (auto& t : n->vs_traces()) traces.push_back(std::move(t));
    }
    const auto report = samoa::verify::check_virtual_synchrony(traces);
    a.vs_violations = report.violations.size();
    for (const auto& v : report.violations) a.problems.push_back("virtual synchrony: " + v);
  }
  return a;
}

}  // namespace perfbench
