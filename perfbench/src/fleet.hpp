// A GroupNode fleet instrumented from outside the library.
//
// Delivery stamps: DeliverSink calls its view source exactly once per
// application adelivery, in delivery order, under the sink lock. Fleet
// wraps that source on every incarnation of every site (after
// construction and after each restart, before the site can adeliver), so
// the k-th stamp of an incarnation is the adeliver time of the k-th entry
// of that incarnation's adelivered() list. Stamps read the fleet's clock:
// wall time on the wall-clock workload, virtual time on the others.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gc/group_node.hpp"
#include "net/sim_network.hpp"
#include "probes.hpp"
#include "time/clock.hpp"

namespace perfbench {

using samoa::Clock;

struct FleetConfig {
  int sites = 5;
  samoa::gc::GcOptions opts;  // opts.clock is taken from the Fleet's clock
  samoa::net::LinkOptions link;
  std::uint64_t net_seed = 1;
};

/// Adeliver times of one incarnation of one site, in delivery order.
class StampLog {
 public:
  void push(Clock::time_point t) {
    std::lock_guard lock(mu_);
    stamps_.push_back(t);
  }
  std::size_t size() const {
    std::lock_guard lock(mu_);
    return stamps_.size();
  }
  std::vector<Clock::time_point> snapshot() const {
    std::lock_guard lock(mu_);
    return stamps_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Clock::time_point> stamps_;
};

/// One submitted abcast.
struct Submission {
  int origin = -1;               // fleet index of the submitting site
  std::size_t incarnation = 0;   // its incarnation at submission
  double due_ms = 0;             // scheduled time, fleet-clock ms since the epoch
  double lag_ms = 0;             // call start - due, fleet clock
  double call_us = 0;            // wall duration of GroupNode::abcast()
  double call_start_ms = 0;      // fleet-clock ms of the call start
};

/// Waits, on its own thread and in submission order, for the handles of
/// the submit computations, and stamps each completion on the wall clock.
/// A handle completing out of order is stamped when its predecessors are.
class CompletionWatcher {
 public:
  CompletionWatcher();
  ~CompletionWatcher();

  CompletionWatcher(const CompletionWatcher&) = delete;
  CompletionWatcher& operator=(const CompletionWatcher&) = delete;

  void watch(std::size_t msg, WallClock::time_point call_start, samoa::ComputationHandle handle);
  /// Submit -> done wall microseconds, indexed by message (-1: not seen).
  std::vector<double> results(std::size_t messages) const;
  std::size_t failures() const;

 private:
  struct Item {
    std::size_t msg;
    WallClock::time_point start;
    samoa::ComputationHandle handle;
  };
  void loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  std::vector<std::pair<std::size_t, double>> done_;
  std::size_t failures_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

/// Counters read from the library's public accessors, summed over sites
/// and over incarnations that ended (a restart discards a site's stack).
struct LayerTotals {
  double admissions = 0, admit_slow = 0, gate_waits = 0;
  double gate_wait_p50_ns = 0, gate_wait_p99_ns = 0;  // worst site
  double computations = 0, handler_calls = 0;
  double exec_dispatched = 0, exec_batches = 0, exec_handoffs = 0, exec_wakeups = 0;
  double exec_overflow = 0, exec_queue_depth_p99 = 0;  // worst site
  double cs_decided_max = 0, cs_rounds = 0, cs_decision_pulls = 0, ab_delivered_at_max = 0;
  double rc_retransmissions = 0, rc_flow_deferred = 0, rc_peak_in_flight = 0;
  double fd_suspicions = 0, ticks_coalesced = 0, rejoins = 0;

  void add(const LayerTotals& o);
  /// Counter deltas this - base (worst-site quantiles and peaks keep this).
  LayerTotals minus(const LayerTotals& base) const;
};

class Fleet {
 public:
  Fleet(const FleetConfig& cfg, samoa::time::ClockSource& clock, std::uint64_t payload_seed);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Install the initial view (every site) and arm the timers; the fleet
  /// epoch is taken here.
  void start();

  int size() const { return static_cast<int>(nodes_.size()); }
  samoa::gc::GroupNode& node(int i) { return *nodes_[i]; }
  samoa::net::SimNetwork& net() { return net_; }
  int index_of(samoa::SiteId id) const;

  /// Fleet-clock milliseconds since the epoch.
  double ms(Clock::time_point t) const;
  Clock::time_point epoch() const { return epoch_; }
  double now_ms() const { return ms(clock_.now()); }

  /// Submit one abcast at site `i`, due at `due` (fleet clock).
  void submit(int i, Clock::time_point due);
  std::size_t submitted() const { return subs_.size(); }
  const std::vector<Submission>& submissions() const { return subs_; }
  CompletionWatcher& watcher() { return watcher_; }

  void crash(int i);
  /// Restart a crashed site as a fresh incarnation (not yet a member).
  void restart(int i);
  bool alive(int i) const { return alive_[i]; }
  /// Adeliveries stamped so far by site i's current incarnation.
  std::size_t delivered(int i) const { return logs_[i].back()->size(); }
  /// Fewest adeliveries stamped by any never-crashed live site.
  std::size_t min_survivor_delivered() const;
  /// Fleet-clock ms of the first adelivery of site i's current incarnation
  /// (-1 while it has none).
  double first_delivery_ms(int i) const;

  void stop_timers();
  /// Drain the network and every runtime to a fixpoint (no more traffic).
  void quiesce();
  /// Stop every site so remaining traffic is dropped (teardown after an
  /// overload, when draining could take long). Unlike crash(), halted
  /// sites still count as live in analyze().
  void halt();

  LayerTotals layer_totals();

  /// Correctness and per-message delivery times, from the stamp logs and
  /// the sinks. Safe while the fleet runs (a consistent-enough snapshot);
  /// exact after quiesce().
  struct Analysis {
    std::uint64_t order_mismatches = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t vs_violations = 0;
    std::vector<std::string> problems;
    // Per message, fleet-clock ms (-1: never).
    std::vector<double> at_origin;   // the submitting incarnation's adeliver
    std::vector<double> first;       // earliest adeliver anywhere
    std::vector<double> last_live;   // latest adeliver among live incarnations
    std::vector<char> delivered;     // at every never-crashed live site
    // Every adeliver time at never-crashed live sites, sorted (outages).
    std::vector<double> survivor_stamps;
    struct Delivery {
      int site;
      std::size_t incarnation;
      std::size_t msg;
      double at;
    };
    std::vector<Delivery> deliveries;  // every incarnation's, for the trace
  };
  Analysis analyze(bool check_vs);

 private:
  void wrap_sink(int i);
  LayerTotals node_totals(int i);

  samoa::time::ClockSource& clock_;
  samoa::net::SimNetwork net_;
  std::vector<std::unique_ptr<samoa::gc::GroupNode>> nodes_;
  // logs_[site][incarnation]; unique_ptr keeps addresses stable for the
  // sink callbacks while the vectors grow.
  std::vector<std::vector<std::unique_ptr<StampLog>>> logs_;
  std::vector<char> alive_;
  LayerTotals retired_;  // counters of incarnations ended by restart()
  Clock::time_point epoch_{};
  std::uint64_t payload_seed_;
  std::vector<Submission> subs_;
  CompletionWatcher watcher_;
};

/// The generator's choice of submitting site: round-robin, every site once
/// per round, in a seeded order that changes every round. (A fixed order
/// would line origins up with consensus' own round-robin coordinator
/// rotation, and the seed would then pick between two latency modes.)
class Origins {
 public:
  Origins(int sites, std::uint64_t seed);
  /// Next site of the sequence that is not excluded (all excluded: -1).
  int next(const std::vector<char>& excluded);

 private:
  std::vector<int> order_;
  std::size_t pos_ = 0;
  std::uint64_t state_;
};

/// Payload of message `msg`: "m<msg>." followed by seeded padding.
std::string payload_for(std::size_t msg, std::uint64_t seed);
/// Inverse of payload_for; false for a foreign payload.
bool parse_payload(const std::string& data, std::size_t& msg);

}  // namespace perfbench
