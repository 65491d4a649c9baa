// Computations.
//
// An external event spawns a *computation*: the closure of all handler
// executions causally dependent on it (paper Section 2). A computation may
// be multi-threaded (asynchronous event triggers fan out onto the
// runtime's pool) and is complete when its root expression returned and
// every asynchronous task has terminated. Computations are never aborted;
// even a throwing handler lets the computation run to completion so that
// the controller's Step 3 always releases the versions it acquired.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cc/controller.hpp"
#include "util/ids.hpp"
#include "util/sync.hpp"

namespace samoa {

class Runtime;

/// Per-computation undo log — the rollback half of the TSO controller.
/// TxVar mutations append undo closures; a restart replays them newest
/// first. Computations are single-threaded under TSO, so no locking.
class UndoLog {
 public:
  void record(std::function<void()> undo) { entries_.push_back(std::move(undo)); }

  /// Undo everything, newest first, and clear.
  void rollback() {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) (*it)();
    entries_.clear();
  }

  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::function<void()>> entries_;
};

class Computation : public std::enable_shared_from_this<Computation> {
 public:
  /// The isolation declaration is consumed by the controller at
  /// admission; `cc` holds everything the computation keeps of it.
  Computation(Runtime& runtime, ComputationId id, std::unique_ptr<ComputationCC> cc);

  Computation(const Computation&) = delete;
  Computation& operator=(const Computation&) = delete;

  ComputationId id() const { return id_; }
  Runtime& runtime() const { return runtime_; }
  ComputationCC& cc() const { return *cc_; }

  /// Task accounting. The root expression counts as one task; every
  /// asynchronous trigger adds one. The task that drops the count to zero
  /// finalizes the computation (Step 3 + completion signal) on its thread.
  void task_started();
  void task_finished();

  /// Record the first error raised inside the computation; later errors
  /// are dropped. The computation still completes.
  void record_error(std::exception_ptr e);
  bool failed() const;
  /// Rethrows the recorded error, if any.
  void rethrow_if_error() const;

  bool done() const { return completed_.is_set(); }
  /// Throws ConfigError instead of blocking forever when called on the
  /// thread whose inline queue still holds this computation's work (it
  /// could only run after the caller returns).
  void wait_done();
  bool wait_done_for(std::chrono::milliseconds timeout) { return completed_.wait_for(timeout); }

  // -- rollback / restart support (TSO controller) --
  bool undo_enabled() const { return undo_enabled_; }
  void enable_undo() { undo_enabled_ = true; }
  UndoLog& undo_log() { return undo_; }
  std::uint32_t restarts() const { return restarts_; }
  void count_restart() { ++restarts_; }

 private:
  void finalize();

  Runtime& runtime_;
  ComputationId id_;
  std::unique_ptr<ComputationCC> cc_;
  /// The spawning thread, whose inline queue runs every task of this
  /// computation; no thread when the runtime dispatches to other threads.
  std::thread::id inline_thread_;

  std::atomic<std::size_t> pending_tasks_{0};
  OneShotEvent completed_;
  UndoLog undo_;
  bool undo_enabled_ = false;
  std::uint32_t restarts_ = 0;

  mutable std::mutex error_mu_;
  std::exception_ptr first_error_;
};

/// User-facing handle to a spawned computation. Shares ownership so the
/// handle stays valid however long the caller keeps it.
class ComputationHandle {
 public:
  ComputationHandle() = default;
  explicit ComputationHandle(std::shared_ptr<Computation> comp) : comp_(std::move(comp)) {}

  bool valid() const { return comp_ != nullptr; }
  ComputationId id() const { return comp_->id(); }
  bool done() const { return comp_->done(); }
  bool failed() const { return comp_->failed(); }

  /// Block until the computation completed, then rethrow its first error
  /// (if any).
  void wait() const {
    comp_->wait_done();
    comp_->rethrow_if_error();
  }

  /// Like wait() but with a timeout; returns false if still running.
  bool wait_for(std::chrono::milliseconds timeout) const {
    if (!comp_->wait_done_for(timeout)) return false;
    comp_->rethrow_if_error();
    return true;
  }

 private:
  std::shared_ptr<Computation> comp_;
};

}  // namespace samoa
