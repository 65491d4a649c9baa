// ScheduleTrace — the compact decision string a schedule run replays from.
//
// Every point where the explorer chose between >= 2 runnable steps is one
// Decision: which sorted candidate was picked and how many there were.
// Single-candidate points are not decisions (there is nothing to choose),
// so a trace is exactly the information-bearing part of a schedule: the
// pair (workload seed, trace) reproduces a run bit-for-bit.
//
// Wire format (one token per decision, '.'-separated):
//
//     s2/4.s0/3.n1/3
//
// kind 's' = a step decision (which computation task runs next), kind 'n'
// = a network decision (which due SimNetwork lane head is delivered
// next); then chosen-index '/' candidate-count. The candidate count is
// stored so a replayer can detect divergence (a forced schedule that no
// longer matches the workload) instead of silently exploring something
// else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace samoa::explore {

struct Decision {
  char kind = 's';
  std::uint32_t chosen = 0;
  std::uint32_t ncand = 0;

  friend bool operator==(const Decision&, const Decision&) = default;
};

class ScheduleTrace {
 public:
  ScheduleTrace() = default;
  explicit ScheduleTrace(std::vector<Decision> decisions) : decisions_(std::move(decisions)) {}

  void record(char kind, std::uint32_t chosen, std::uint32_t ncand) {
    decisions_.push_back({kind, chosen, ncand});
  }

  const std::vector<Decision>& decisions() const { return decisions_; }
  std::size_t size() const { return decisions_.size(); }
  bool empty() const { return decisions_.empty(); }
  void clear() { decisions_.clear(); }

  std::string encode() const;
  /// Inverse of encode. Throws std::invalid_argument on malformed input.
  static ScheduleTrace decode(const std::string& text);

  friend bool operator==(const ScheduleTrace&, const ScheduleTrace&) = default;

 private:
  std::vector<Decision> decisions_;
};

}  // namespace samoa::explore
