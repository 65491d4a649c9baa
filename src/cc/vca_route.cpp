#include "cc/vca_route.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cc/routing_graph.hpp"
#include "core/errors.hpp"

namespace samoa {

/// A declared microprotocol's private version, and its name for dumps.
struct RouteClaim {
  std::uint64_t pv = 0;
  const char* who = "";
};

class VCARouteComputationCC : public ComputationCC {
 public:
  VCARouteComputationCC(VCARouteController& ctrl, ComputationId k, RoutingGraph graph,
                        std::unordered_map<MicroprotocolId, RouteClaim> pv)
      : ctrl_(ctrl), k_(k), graph_(std::move(graph)), pv_(std::move(pv)) {}

  void on_issue(HandlerId caller, const Handler& h) override {
    std::unique_lock lock(mu_);
    if (!graph_.has_node(h.id())) {
      std::ostringstream os;
      os << "isolated route: computation " << k_ << " called handler '" << h.name()
         << "' absent from the declared routing pattern";
      throw IsolationError(os.str());
    }
    if (!caller.valid()) {
      if (!graph_.is_entry(h.id())) {
        std::ostringstream os;
        os << "isolated route: handler '" << h.name()
           << "' is not declared callable from the root expression";
        throw IsolationError(os.str());
      }
    } else if (!graph_.has_path(caller, h.id())) {
      std::ostringstream os;
      os << "isolated route: no route to handler '" << h.name()
         << "' from its caller in the declared pattern";
      throw IsolationError(os.str());
    }
    if (released_.contains(h.owner().id())) {
      // Defensive: reachable callees can never belong to a released
      // microprotocol; hitting this means the declared pattern disagreed
      // with the actual call structure (e.g. a cycle re-entered late).
      std::ostringstream os;
      os << "isolated route: microprotocol '" << h.owner().name()
         << "' was already released by routing analysis";
      throw IsolationError(os.str());
    }
    ++pending_[h.id()];  // active-at-issue: see header comment
  }

  void before_execute(const Handler& h) override {
    const auto pv = pv_.at(h.owner().id()).pv;
    ctrl_.gates_.gate(h.owner().id()).wait_exact(pv - 1, ctrl_.stats_, h.owner().name().c_str());
  }

  void after_execute(const Handler& h) override {
    std::unique_lock lock(mu_);
    auto it = pending_.find(h.id());
    if (it != pending_.end() && it->second > 0) --it->second;  // Rule 4(a)
    scan_releases_locked();                                    // Rule 4(b)
  }

  void on_root_done() override {
    std::unique_lock lock(mu_);
    root_active_ = false;
    scan_releases_locked();
  }

  void on_complete() override {
    // The final scan (all handlers inactive, ROOT done) released every
    // microprotocol via deferred upgrades, so Step 3 reduces to Rule 3 of
    // VCAbound for anything a cycle or race left over — normally nothing.
    std::vector<MicroprotocolId> leftovers;
    {
      std::unique_lock lock(mu_);
      for (const auto& [mp, claim] : pv_) {
        (void)claim;
        if (!released_.contains(mp)) leftovers.push_back(mp);
      }
    }
    for (MicroprotocolId mp : leftovers) {
      auto& gate = ctrl_.gates_.gate(mp);
      const RouteClaim& claim = pv_.at(mp);
      gate.wait_exact(claim.pv - 1, ctrl_.stats_, claim.who);
      gate.set_lv(claim.pv);
    }
  }

 private:
  // Rule 4(b): release every microprotocol whose handlers are all inactive
  // and unreachable from any active handler (ROOT counts as active until
  // the root expression returned). Caller holds mu_.
  void scan_releases_locked() {
    std::vector<HandlerId> active;
    for (const auto& [h, count] : pending_) {
      if (count > 0) active.push_back(h);
    }
    auto reachable = graph_.reachable_from(active);
    if (root_active_) {
      auto from_root = graph_.reachable_from_root();
      reachable.insert(from_root.begin(), from_root.end());
    }
    for (MicroprotocolId mp : graph_.microprotocols()) {
      if (released_.contains(mp)) continue;
      bool releasable = true;
      for (HandlerId h : graph_.handlers_of(mp)) {
        auto it = pending_.find(h);
        const bool is_active = it != pending_.end() && it->second > 0;
        if (is_active || reachable.contains(h)) {
          releasable = false;
          break;
        }
      }
      if (releasable) {
        released_.insert(mp);
        const auto pv = pv_.at(mp).pv;
        ctrl_.gates_.gate(mp).schedule_set(pv - 1, pv);
      }
    }
  }

  VCARouteController& ctrl_;
  ComputationId k_;
  RoutingGraph graph_;
  std::unordered_map<MicroprotocolId, RouteClaim> pv_;

  std::mutex mu_;
  std::unordered_map<HandlerId, std::uint64_t> pending_;  // issued-but-uncompleted calls
  std::unordered_set<MicroprotocolId> released_;
  bool root_active_ = true;
};

std::unique_ptr<ComputationCC> VCARouteController::admit(ComputationId k, const Isolation& spec) {
  if (spec.kind() != Isolation::Kind::Route) {
    throw ConfigError("VCAroute requires Isolation::route declarations (got " + spec.describe() +
                      ")");
  }
  stats_.admissions.add();
  RoutingGraph graph(spec.route_spec(), spec.route_owners());
  std::unordered_map<MicroprotocolId, RouteClaim> pv;
  const auto& members = spec.members();
  const auto admit_one = [&](std::size_t i) {
    const MicroprotocolId mp = members[i];
    pv.emplace(mp, RouteClaim{gates_.gate(mp).admit(1, k.value()), spec.member_names()[i]});
  };
  if (members.size() == 1) {
    // Single microprotocol: one lock-free fetch_add claims the version.
    stats_.admit_fast.add();
    admit_one(0);
  } else {
    // Lock-ordered multi-mp path; see VCABasicController::admit.
    stats_.admit_slow.add();
    const std::vector<GateClaim> claims = resolve_claims(gates_, spec);
    OrderedAdmission locks(claims);
    for (std::size_t i = 0; i < members.size(); ++i) admit_one(i);
  }
  return std::make_unique<VCARouteComputationCC>(*this, k, std::move(graph), std::move(pv));
}

}  // namespace samoa
