// Exploration strategies — who decides which runnable step goes next.
//
// A Strategy is consulted at every decision point (>= 2 candidates) with
// the candidates' schedule-stable keys, in the order the seam presents
// them (index 0 is the natural choice); it returns an index. Strategies
// are single-run objects (construct a fresh one per schedule) except
// ExhaustiveStrategy, which carries DFS state across runs to enumerate the
// schedule space to a depth bound.
//
//   FirstStrategy       always picks index 0 — the "natural" schedule
//                       (submission order); the deterministic baseline.
//   RandomWalkStrategy  uniform seeded choice at every point. Covers the
//                       space thinly but broadly; the workhorse fuzzer.
//   PctStrategy         PCT-style (Burckhardt et al.): random priorities
//                       per candidate key, run the highest, demote it at k
//                       pre-drawn preemption points. Finds bugs that need
//                       few ordering constraints with much better
//                       probability than a uniform walk.
//   ReplayStrategy      forces a recorded ScheduleTrace; decisions past
//                       the trace's end fall back to index 0. `diverged()`
//                       reports whether any decision point disagreed with
//                       the recorded candidate count (strict replays
//                       assert it stays false).
//   ExhaustiveStrategy  depth-bounded DFS: enumerate every decision
//                       sequence whose first `max_depth` decisions differ,
//                       choosing 0 beyond the bound. advance() moves to
//                       the next path; false when the space is exhausted.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "explore/trace.hpp"
#include "net/sim_network.hpp"
#include "util/rng.hpp"

namespace samoa::explore {

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Pick an index into `keys` (size >= 2). Called with scheduler locks
  /// held: must not block or re-enter the runtime.
  virtual std::size_t choose(char kind, const std::vector<std::uint64_t>& keys) = 0;
};

class FirstStrategy final : public Strategy {
 public:
  std::size_t choose(char, const std::vector<std::uint64_t>&) override { return 0; }
};

class RandomWalkStrategy final : public Strategy {
 public:
  explicit RandomWalkStrategy(std::uint64_t seed) : rng_(seed) {}

  std::size_t choose(char, const std::vector<std::uint64_t>& keys) override {
    return static_cast<std::size_t>(rng_.next_below(keys.size()));
  }

 private:
  Rng rng_;
};

class PctStrategy final : public Strategy {
 public:
  /// `k` preemption points are drawn uniformly from the first `horizon`
  /// decision indices.
  PctStrategy(std::uint64_t seed, std::size_t k, std::size_t horizon = 512);

  std::size_t choose(char kind, const std::vector<std::uint64_t>& keys) override;

 private:
  Rng rng_;
  std::unordered_map<std::uint64_t, std::uint64_t> priority_;  // key -> priority (higher runs)
  std::unordered_set<std::size_t> change_points_;
  std::size_t decision_index_ = 0;
  std::uint64_t demote_next_ = 0;  // descending, below every random priority
};

class ReplayStrategy final : public Strategy {
 public:
  explicit ReplayStrategy(ScheduleTrace trace) : trace_(std::move(trace)) {}

  std::size_t choose(char kind, const std::vector<std::uint64_t>& keys) override;

  bool diverged() const { return diverged_; }

 private:
  ScheduleTrace trace_;
  std::size_t index_ = 0;
  bool diverged_ = false;
};

class ExhaustiveStrategy final : public Strategy {
 public:
  explicit ExhaustiveStrategy(std::size_t max_depth) : max_depth_(max_depth) {}

  std::size_t choose(char, const std::vector<std::uint64_t>& keys) override;

  /// Advance the DFS using the decisions the last run actually executed.
  /// Returns false when every path within the depth bound has been run.
  bool advance(const ScheduleTrace& executed);

 private:
  std::size_t max_depth_;
  std::vector<std::uint32_t> prefix_;  // forced choices for the next run
  std::size_t index_ = 0;
};

/// Adapter wiring a Strategy into SimNetwork's DeliveryHook seam: each
/// delivery step with >= 2 due lane heads becomes an 'n' decision in the
/// trace. Candidate keys are destination site ids — stable across runs of
/// a deterministic simulation. Install with SimNetwork::set_delivery_hook;
/// `choose` runs under the network's mutex, which also serialises trace
/// recording.
class ExploringDeliveryHook final : public net::DeliveryHook {
 public:
  explicit ExploringDeliveryHook(Strategy& strategy) : strategy_(&strategy) {}

  std::size_t choose(const std::vector<std::uint64_t>& keys) override;

  const ScheduleTrace& trace() const { return trace_; }

 private:
  Strategy* strategy_;
  ScheduleTrace trace_;
};

}  // namespace samoa::explore
