#include "explore/strategy.hpp"

#include <algorithm>

namespace samoa::explore {

PctStrategy::PctStrategy(std::uint64_t seed, std::size_t k, std::size_t horizon) : rng_(seed) {
  // Priorities drawn below start at 2^32; demotions count down from just
  // under it, so a demoted key ranks below every un-demoted one.
  demote_next_ = (1ull << 32) - 1;
  for (std::size_t i = 0; i < k && horizon > 0; ++i) {
    change_points_.insert(static_cast<std::size_t>(rng_.next_below(horizon)));
  }
}

std::size_t PctStrategy::choose(char, const std::vector<std::uint64_t>& keys) {
  for (std::uint64_t key : keys) {
    if (!priority_.contains(key)) priority_[key] = (1ull << 32) + rng_.next();
  }
  auto best = keys.begin();
  for (auto it = keys.begin(); it != keys.end(); ++it) {
    if (priority_[*it] > priority_[*best]) best = it;
  }
  if (change_points_.contains(decision_index_)) {
    priority_[*best] = demote_next_--;
    // Re-pick after the demotion: the preemption takes effect immediately.
    best = keys.begin();
    for (auto it = keys.begin(); it != keys.end(); ++it) {
      if (priority_[*it] > priority_[*best]) best = it;
    }
  }
  ++decision_index_;
  return static_cast<std::size_t>(best - keys.begin());
}

std::size_t ReplayStrategy::choose(char kind, const std::vector<std::uint64_t>& keys) {
  if (index_ >= trace_.size()) return 0;
  const Decision& d = trace_.decisions()[index_++];
  if (d.kind != kind || d.ncand != keys.size()) diverged_ = true;
  return std::min<std::size_t>(d.chosen, keys.size() - 1);
}

std::size_t ExhaustiveStrategy::choose(char, const std::vector<std::uint64_t>& keys) {
  std::size_t pick = 0;
  if (index_ < prefix_.size()) pick = std::min<std::size_t>(prefix_[index_], keys.size() - 1);
  ++index_;
  return pick;
}

bool ExhaustiveStrategy::advance(const ScheduleTrace& executed) {
  index_ = 0;
  const auto& ds = executed.decisions();
  const std::size_t limit = std::min(ds.size(), max_depth_);
  for (std::size_t p = limit; p-- > 0;) {
    if (ds[p].chosen + 1 < ds[p].ncand) {
      prefix_.assign(p + 1, 0);
      for (std::size_t i = 0; i < p; ++i) prefix_[i] = ds[i].chosen;
      prefix_[p] = ds[p].chosen + 1;
      return true;
    }
  }
  return false;
}

std::size_t ExploringDeliveryHook::choose(const std::vector<std::uint64_t>& keys) {
  const std::size_t idx = std::min(strategy_->choose('n', keys), keys.size() - 1);
  trace_.record('n', static_cast<std::uint32_t>(idx), static_cast<std::uint32_t>(keys.size()));
  return idx;
}

}  // namespace samoa::explore
