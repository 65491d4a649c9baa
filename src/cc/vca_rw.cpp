#include "cc/vca_rw.hpp"

#include <sstream>

#include "core/errors.hpp"

namespace samoa {

class VCARWComputationCC : public ComputationCC {
 public:
  struct Slot {
    std::uint64_t pv = 0;
    Access access = Access::kWrite;
    const char* who = "";  // the microprotocol's name, for dumps
  };

  VCARWComputationCC(VCARWController& ctrl, ComputationId k,
                     std::unordered_map<MicroprotocolId, Slot> slots)
      : ctrl_(ctrl), k_(k), slots_(std::move(slots)) {}

  void on_issue(HandlerId, const Handler& h) override {
    auto it = slots_.find(h.owner().id());
    if (it == slots_.end()) {
      std::ostringstream os;
      os << "isolated rw: computation " << k_ << " called handler '" << h.name()
         << "' of undeclared microprotocol '" << h.owner().name() << "'";
      throw IsolationError(os.str());
    }
    if (it->second.access == Access::kRead && !h.read_only()) {
      std::ostringstream os;
      os << "isolated rw: computation " << k_ << " declared read-only access to '"
         << h.owner().name() << "' but called read-and-write handler '" << h.name() << "'";
      throw IsolationError(os.str());
    }
  }

  void before_execute(const Handler& h) override {
    const Slot& s = slots_.at(h.owner().id());
    // Readers of one group share pv, so they all pass together; writers
    // hold pv exclusively — plain VCAbasic gating either way.
    ctrl_.gates_.gate(h.owner().id()).wait_exact(s.pv - 1, ctrl_.stats_, h.owner().name().c_str());
  }

  void after_execute(const Handler&) override {}

  void on_complete() override {
    for (const auto& [mp, s] : slots_) {
      auto& gate = ctrl_.gates_.gate(mp);
      if (s.access == Access::kWrite) {
        gate.wait_exact(s.pv - 1, ctrl_.stats_, s.who);
        gate.set_lv(s.pv);
        continue;
      }
      // Reader: leave the group; the last member out performs the upgrade.
      // Membership is guarded by the owning gate's admission mutex — the
      // same lock admissions use to join, so join and last-out race
      // coherently without any controller-wide lock.
      bool last_out;
      {
        std::unique_lock lock(gate.admission_mutex());
        auto& rw = ctrl_.rw_state(mp);
        auto it = rw.group_members.find(s.pv);
        last_out = --it->second == 0;
        if (last_out) {
          rw.group_members.erase(it);
          if (rw.joinable_version == s.pv) rw.joinable_version = 0;
        }
      }
      if (last_out) {
        gate.wait_exact(s.pv - 1, ctrl_.stats_, s.who);
        gate.set_lv(s.pv);
      }
    }
  }

 private:
  VCARWController& ctrl_;
  ComputationId k_;
  std::unordered_map<MicroprotocolId, Slot> slots_;
};

VCARWController::RwState& VCARWController::rw_state(MicroprotocolId mp) {
  std::unique_lock lock(rw_map_mu_);
  return rw_[mp];
}

std::unique_ptr<ComputationCC> VCARWController::admit(ComputationId k, const Isolation& spec) {
  if (spec.kind() != Isolation::Kind::ReadWrite) {
    throw ConfigError("VCArw requires Isolation::read_write declarations (got " +
                      spec.describe() + ")");
  }
  stats_.admissions.add();
  std::unordered_map<MicroprotocolId, VCARWComputationCC::Slot> slots;
  const auto& members = spec.members();
  // Caller must hold gates_.gate(members[i]).admission_mutex().
  auto admit_one = [&](std::size_t i) {
    const MicroprotocolId mp = members[i];
    const Access access = spec.accesses().at(mp);
    auto& gate = gates_.gate(mp);
    auto& rw = rw_state(mp);
    VCARWComputationCC::Slot s;
    s.access = access;
    s.who = spec.member_names()[i];
    if (access == Access::kWrite) {
      s.pv = gate.admit(1, k.value());
      rw.joinable_version = 0;  // later readers must start a new group
    } else if (rw.joinable_version != 0 && gate.lv() < rw.joinable_version) {
      // Join the open reader group: its turn has not passed and no
      // writer was admitted in between. The group shares a version; its
      // first member already stands in as the holder.
      s.pv = rw.joinable_version;
      ++rw.group_members[s.pv];
    } else {
      s.pv = gate.admit(1, k.value());
      rw.joinable_version = s.pv;
      rw.group_members[s.pv] = 1;
    }
    slots.emplace(mp, s);
  };
  if (members.size() == 1) {
    // Sharded fast path: group joining mutates per-mp shared state, so rw
    // takes the single member gate's admission lock — contention stays
    // per-microprotocol instead of controller-wide.
    stats_.admit_fast.add();
    std::unique_lock lock(gates_.gate(members.front()).admission_mutex());
    admit_one(0);
  } else {
    stats_.admit_slow.add();
    const std::vector<GateClaim> claims = resolve_claims(gates_, spec);
    OrderedAdmission locks(claims);
    for (std::size_t i = 0; i < members.size(); ++i) admit_one(i);
  }
  return std::make_unique<VCARWComputationCC>(*this, k, std::move(slots));
}

}  // namespace samoa
