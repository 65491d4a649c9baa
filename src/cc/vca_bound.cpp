#include "cc/vca_bound.hpp"

#include <sstream>
#include <unordered_map>

#include "core/errors.hpp"

namespace samoa {

struct Slot {
  std::uint64_t pv = 0;       // private version (upper edge of the window)
  std::uint64_t bound = 0;    // declared least upper bound
  std::uint64_t used = 0;     // visits issued so far (guarded by mu)
  const char* who = "";       // the microprotocol's name, for dumps
};

class VCABoundComputationCC : public ComputationCC {
 public:
  VCABoundComputationCC(VCABoundController& ctrl, ComputationId k,
                        std::unordered_map<MicroprotocolId, Slot> slots)
      : ctrl_(ctrl), k_(k), slots_(std::move(slots)) {}

  void on_issue(HandlerId, const Handler& h) override {
    const auto mp = h.owner().id();
    auto it = slots_.find(mp);
    if (it == slots_.end()) {
      std::ostringstream os;
      os << "isolated bound: computation " << k_ << " called handler '" << h.name()
         << "' of undeclared microprotocol '" << h.owner().name() << "'";
      throw IsolationError(os.str());
    }
    std::unique_lock lock(mu_);
    if (it->second.used >= it->second.bound) {
      std::ostringstream os;
      os << "isolated bound: computation " << k_ << " exhausted its bound of "
         << it->second.bound << " visits to microprotocol '" << h.owner().name() << "'";
      throw IsolationError(os.str());
    }
    ++it->second.used;
  }

  void before_execute(const Handler& h) override {
    const Slot& s = slots_.at(h.owner().id());
    // Rule 2: pv - bound <= lv < pv.
    ctrl_.gates_.gate(h.owner().id())
        .wait_window(s.pv - s.bound, s.pv, ctrl_.stats_, h.owner().name().c_str());
  }

  void after_execute(const Handler& h) override {
    // Rule 4: every completed handler execution upgrades lv by one.
    ctrl_.gates_.gate(h.owner().id()).increment_lv();
  }

  void on_complete() override {
    // Rule 3: only microprotocols visited fewer times than declared still
    // hold lv below pv; wait for the window, then close it.
    for (const auto& [mp, s] : slots_) {
      auto& gate = ctrl_.gates_.gate(mp);
      if (gate.lv() >= s.pv) continue;  // budget fully used: Rule 4 closed it
      gate.wait_window(s.pv - s.bound, s.pv, ctrl_.stats_, s.who);
      gate.set_lv(s.pv);
    }
  }

 private:
  VCABoundController& ctrl_;
  ComputationId k_;
  std::mutex mu_;  // guards the `used` counters
  std::unordered_map<MicroprotocolId, Slot> slots_;
};

std::unique_ptr<ComputationCC> VCABoundController::admit(ComputationId k, const Isolation& spec) {
  if (spec.kind() != Isolation::Kind::Bound) {
    throw ConfigError("VCAbound requires Isolation::bound declarations (got " + spec.describe() +
                      ")");
  }
  stats_.admissions.add();
  std::unordered_map<MicroprotocolId, Slot> slots;
  const auto& members = spec.members();
  auto admit_one = [&](std::size_t i) {
    const MicroprotocolId mp = members[i];
    const std::uint64_t bound = spec.bounds().at(mp);
    Slot s;
    s.bound = bound;
    s.pv = gates_.gate(mp).admit(bound, k.value());  // Rule 1: gv += bound[p]
    s.who = spec.member_names()[i];
    slots.emplace(mp, s);
  };
  if (members.size() == 1) {
    // Single microprotocol: the window claim is one lock-free fetch_add.
    stats_.admit_fast.add();
    admit_one(0);
  } else {
    // Lock-ordered multi-mp path; see VCABasicController::admit.
    stats_.admit_slow.add();
    const std::vector<GateClaim> claims = resolve_claims(gates_, spec);
    OrderedAdmission locks(claims);
    for (std::size_t i = 0; i < members.size(); ++i) admit_one(i);
  }
  return std::make_unique<VCABoundComputationCC>(*this, k, std::move(slots));
}

}  // namespace samoa
