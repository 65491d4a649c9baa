// Concurrency-controller interface.
//
// One ConcurrencyController instance lives inside each Runtime and
// implements a variant of the paper's `isolated` construct. For every
// spawned computation the controller produces a ComputationCC — the
// per-computation half of the algorithm (private version map pv_k, visit
// budgets, routing-graph status) — while the controller itself owns the
// shared half (per-microprotocol global/local version counters).
//
// Hook order for a computation k:
//   admit(k)                                   (Step 1, atomic)
//   on_start()                                 (once, before the root runs)
//   { on_issue -> before_execute -> handler -> after_execute }*   (Step 2/4)
//   on_root_done()                             (root expression returned)
//   on_complete()                              (Step 3; may block)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/isolation.hpp"
#include "core/microprotocol.hpp"
#include "util/ids.hpp"
#include "util/stats.hpp"

namespace samoa {

/// Shared gate-wait statistics published by controllers; consumed by the
/// runtime's stats() and by the overhead benchmarks. All fields are relaxed
/// atomics (Counter / Histogram): with the lock-free admission fast path,
/// concurrent computations mutate these without any shared mutex, so plain
/// integers here would be a data race (and a TSan report).
struct CCStats {
  Counter admissions;
  Counter admit_fast;        // single-mp admissions (lock-free ticket)
  Counter admit_slow;        // multi-mp admissions (lock-ordered path)
  Counter gate_waits;        // before_execute calls that actually blocked
  Histogram gate_wait_time;  // duration of blocking waits

  // Nothing writes these, so they always read 0. They remain only because
  // perfbench/ reads them for its core.exec_* metrics.
  Counter exec_dispatched;
  Counter exec_batches;
  Counter exec_overflow;
  Counter exec_handoffs;
  Counter exec_wakeups;
  Histogram exec_queue_depth;
};

class ComputationCC {
 public:
  virtual ~ComputationCC() = default;

  /// Called once on the computation's root thread before the root
  /// expression runs. Serial execution blocks here for its turn.
  virtual void on_start() {}

  /// An event targeting handler `h` was issued by handler `caller`
  /// (invalid id for the root expression). Runs synchronously in the
  /// issuing thread — this is where declaration violations surface
  /// (IsolationError), and where VCAroute publishes pending/active status
  /// so that a caller cannot complete before its callee is accounted for
  /// (paper Section 5.3, Rule 2 parenthetical).
  virtual void on_issue(HandlerId caller, const Handler& h) = 0;

  /// Version gate: blocks until the computation holds the current version
  /// of h's microprotocol (Rule 2 of the VCA algorithms).
  virtual void before_execute(const Handler& h) = 0;

  /// Handler execution completed (Rule 4 of VCAbound / VCAroute).
  virtual void after_execute(const Handler& h) = 0;

  /// The root expression returned (VCAroute: the virtual ROOT handler
  /// becomes inactive, possibly releasing entry microprotocols).
  virtual void on_root_done() {}

  /// All threads/tasks of the computation terminated (Step 3). May block
  /// waiting for older computations, per the algorithms' wait conditions.
  virtual void on_complete() = 0;

  /// The computation is about to roll back and restart (TSO wait-die
  /// loss): release everything acquired so far. Never called by the
  /// versioning controllers (computations are never aborted there).
  virtual void on_abort() {}

  /// Whether the controller supports asynchronous triggers (TSO does not:
  /// a restart cannot recall an in-flight sibling task).
  virtual bool allows_async() const { return true; }
};

class ConcurrencyController {
 public:
  virtual ~ConcurrencyController() = default;

  /// Admit a new computation (Step 1). Must be atomic with respect to
  /// other admissions. Throws ConfigError if the declaration kind is
  /// incompatible with this controller.
  virtual std::unique_ptr<ComputationCC> admit(ComputationId k, const Isolation& spec) = 0;

  virtual const char* name() const = 0;

  const CCStats& stats() const { return stats_; }

 protected:
  CCStats stats_;
};

/// Selection of the concurrency-control algorithm for a Runtime.
enum class CCPolicy {
  kSerial,    // Appia-like: one computation at a time, FIFO
  kUnsync,    // Cactus-like: no gating at all (baseline / error demo)
  kVCABasic,  // paper Section 5.1
  kVCABound,  // paper Section 5.2
  kVCARoute,  // paper Section 5.3
  kVCARW,     // read/write access modes (paper Section 7, future work)
  kTSO,       // timestamp ordering with rollback/recovery (paper Section 1,
              // the second algorithm family)
};

const char* to_string(CCPolicy policy);

std::unique_ptr<ConcurrencyController> make_controller(CCPolicy policy);

}  // namespace samoa
