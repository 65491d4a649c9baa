// VCAbasic — the Basic Version-Counting Algorithm (paper Section 5.1).
//
// Step 1  (admit, atomic): for each declared microprotocol p, gv_p += 1;
//         the computation's private version pv[p] is the upgraded gv_p.
// Step 2  (before_execute): a handler of p may run only when
//         pv[p] - 1 == lv_p.
// Step 3  (on_complete): for each p in M, wait until pv[p] - 1 == lv_p,
//         then upgrade lv_p = pv[p].
//
// Deadlock-free: admissions are atomic across all of M, so the version
// order between any two computations is identical on every shared
// microprotocol — the wait-for relation is a total order.
//
// Admission is sharded (no controller-wide mutex): a single-microprotocol
// declaration claims its version with one per-gate fetch_add (atomic by
// construction — there is only one counter involved); a multi-microprotocol
// declaration takes the member gates' admission mutexes in mp-id order
// (OrderedAdmission) so any two admissions sharing gates serialize and
// observe identical version order everywhere.
//
// A computation's private versions are one array of GateClaim (mp, gate,
// pv, name) sorted by mp id: the gates are resolved once at admission, so
// the gate checks of Steps 2 and 3 are a binary search and a pointer
// dereference, with no hashing and no gate-table probe, and a Step 3 wait
// names its microprotocol in blocked-state dumps.
#pragma once

#include "cc/controller.hpp"
#include "cc/version_gate.hpp"

namespace samoa {

class VCABasicController : public ConcurrencyController {
 public:
  std::unique_ptr<ComputationCC> admit(ComputationId k, const Isolation& spec) override;
  const char* name() const override { return "VCAbasic"; }

 private:
  GateTable gates_;
};

}  // namespace samoa
