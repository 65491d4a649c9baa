// Serial controller — the Appia-like baseline.
//
// Computations execute one at a time, in spawn (FIFO) order: the simplest
// way to satisfy the isolation property ("the simplest possible solution
// would be to block spawning of a new computation until any other
// computations complete", paper Section 5). spawn_isolated itself never
// blocks (an Appia channel enqueues external events); the computation's
// root task waits for its turn instead.
//
// That is version counting on one counter: every computation admits on
// the single VersionGate `turn_` whatever it declares, waits in on_start
// until the gate publishes its predecessor's version, and publishes its
// own in on_complete. The gate supplies the targeted wakeups, the
// wakeup accounting and the holder records of blocked-state dumps.
#pragma once

#include "cc/controller.hpp"
#include "cc/version_gate.hpp"

namespace samoa {

class SerialController : public ConcurrencyController {
 public:
  std::unique_ptr<ComputationCC> admit(ComputationId k, const Isolation& spec) override;
  const char* name() const override { return "serial"; }

 private:
  VersionGate turn_;
};

}  // namespace samoa
