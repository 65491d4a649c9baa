#include "chaos/chaos_engine.hpp"

#include <sstream>

namespace samoa::chaos {

ChaosEngine::ChaosEngine(net::SimNetwork& net, net::TimerService& timers)
    : net_(net), timers_(timers) {}

void ChaosEngine::arm(const FaultPlan& plan) {
  for (const FaultAction& action : plan.actions()) {
    timers_.schedule(action.at, [this, action] { apply(action); });
  }
}

std::vector<std::string> ChaosEngine::log() const {
  std::unique_lock lock(mu_);
  return log_;
}

void ChaosEngine::note(const std::string& line) {
  const auto now = timers_.clock().now().time_since_epoch();
  std::ostringstream os;
  os << "[t=" << std::chrono::duration_cast<std::chrono::microseconds>(now).count() << "us] "
     << line;
  std::unique_lock lock(mu_);
  log_.push_back(os.str());
}

void ChaosEngine::apply(const FaultAction& action) {
  std::ostringstream os;
  switch (action.kind) {
    case FaultAction::Kind::kCrash:
      net_.crash(action.a);
      stats_.crashes.add();
      os << "crash site " << action.a.value();
      break;
    case FaultAction::Kind::kRecover:
      net_.recover(action.a);
      stats_.recoveries.add();
      os << "recover site " << action.a.value();
      break;
    case FaultAction::Kind::kPartition:
      net_.set_partitioned(action.a, action.b, true);
      stats_.partitions.add();
      os << "partition " << action.a.value() << " <-> " << action.b.value();
      break;
    case FaultAction::Kind::kHeal:
      net_.set_partitioned(action.a, action.b, false);
      stats_.heals.add();
      os << "heal " << action.a.value() << " <-> " << action.b.value();
      break;
    case FaultAction::Kind::kPartitionOneway:
      net_.set_partitioned_oneway(action.a, action.b, true);
      stats_.partitions.add();
      os << "partition " << action.a.value() << " -> " << action.b.value() << " (one-way)";
      break;
    case FaultAction::Kind::kHealOneway:
      net_.set_partitioned_oneway(action.a, action.b, false);
      stats_.heals.add();
      os << "heal " << action.a.value() << " -> " << action.b.value() << " (one-way)";
      break;
    case FaultAction::Kind::kLossBurst: {
      std::unique_lock lock(mu_);
      if (!burst_active_) {
        saved_defaults_ = net_.defaults();
        burst_active_ = true;
      }
      lock.unlock();
      net_.set_defaults(action.link);
      stats_.loss_bursts.add();
      os << "loss burst on (drop " << action.link.drop_probability << ")";
      break;
    }
    case FaultAction::Kind::kLossClear: {
      std::unique_lock lock(mu_);
      const bool active = burst_active_;
      burst_active_ = false;
      const net::LinkOptions restore = saved_defaults_;
      lock.unlock();
      if (active) net_.set_defaults(restore);
      os << "loss burst off";
      break;
    }
    case FaultAction::Kind::kCall:
      if (action.fn) action.fn();
      stats_.calls.add();
      os << "call: " << action.label;
      break;
  }
  note(os.str());
}

}  // namespace samoa::chaos
