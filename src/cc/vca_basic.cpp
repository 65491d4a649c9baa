#include "cc/vca_basic.hpp"

#include <algorithm>
#include <sstream>

#include "core/errors.hpp"

namespace samoa {

class VCABasicComputationCC : public ComputationCC {
 public:
  /// `claims` sorted by mp id, every gate resolved and pv claimed.
  VCABasicComputationCC(CCStats& stats, ComputationId k, std::vector<GateClaim> claims)
      : stats_(stats), k_(k), claims_(std::move(claims)) {}

  void on_issue(HandlerId, const Handler& h) override { claim_of(h); }

  void before_execute(const Handler& h) override {
    const GateClaim& c = claim_of(h);
    c.gate->wait_exact(c.pv - 1, stats_, h.owner().name().c_str());
  }

  void after_execute(const Handler&) override {}

  void on_complete() override {
    // Step 3: upgrade in admission order is implied — each wait_exact can
    // only be satisfied once every older computation upgraded, so the
    // iteration order over the claims is irrelevant for correctness.
    for (const GateClaim& c : claims_) {
      c.gate->wait_exact(c.pv - 1, stats_, c.who);
      c.gate->set_lv(c.pv);
    }
  }

 private:
  /// The claim on h's microprotocol; IsolationError if it was not declared.
  const GateClaim& claim_of(const Handler& h) const {
    const MicroprotocolId mp = h.owner().id();
    const auto it =
        std::lower_bound(claims_.begin(), claims_.end(), mp,
                         [](const GateClaim& c, MicroprotocolId m) { return c.mp < m; });
    if (it == claims_.end() || it->mp != mp) {
      std::ostringstream os;
      os << "isolated: computation " << k_ << " called handler '" << h.name()
         << "' of undeclared microprotocol '" << h.owner().name() << "'";
      throw IsolationError(os.str());
    }
    return *it;
  }

  CCStats& stats_;
  ComputationId k_;
  std::vector<GateClaim> claims_;
};

std::unique_ptr<ComputationCC> VCABasicController::admit(ComputationId k, const Isolation& spec) {
  stats_.admissions.add();
  std::vector<GateClaim> claims = resolve_claims(gates_, spec);
  if (claims.size() == 1) {
    // Fast path: one microprotocol means one counter, so the admission is
    // atomic by construction — a single lock-free fetch_add.
    stats_.admit_fast.add();
    claims.front().pv = claims.front().gate->admit(1, k.value());
  } else {
    // Slow path: Step 1 must bump every member gate as one indivisible
    // step. Holding all member admission locks in mp-id order serializes
    // any two admissions that share gates, which keeps the version order
    // identical on every shared microprotocol (total wait-for order).
    stats_.admit_slow.add();
    OrderedAdmission locks(claims);
    for (GateClaim& c : claims) c.pv = c.gate->admit(1, k.value());
  }
  return std::make_unique<VCABasicComputationCC>(stats_, k, std::move(claims));
}

}  // namespace samoa
