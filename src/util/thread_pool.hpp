// Elastic thread pool.
//
// SAMOA computations may block inside version gates (the concurrency
// control algorithms delay handler calls whose version is not yet
// current). A fixed-size pool could therefore deadlock: every worker might
// be parked in a gate waiting for a computation whose remaining work can
// only run on a pool thread. This pool preserves the paper's
// deadlock-freedom argument by growing whenever a runnable task would
// otherwise be starved. Two growth triggers exist, and both are required:
//
//   * submit(): a task arrives and no idle worker can take it;
//   * note_worker_parked(): a worker blocks *mid-task* in a version gate
//     (reported by diag::ScopedWait) while tasks sit queued — without
//     this, a queued task is stranded until the next submit happens to
//     arrive, and permanently if it never does.
//
// The max_threads cap bounds RUNNABLE workers only: workers parked in
// gates do not count against it. Counting them (as this pool originally
// did) re-introduces the deadlock the growth rule exists to prevent —
// once max_threads computations pile up blocked, the one queued task
// whose execution would unblock them all can never get a thread. This
// was the root cause of the bench_viewchange E2 join-flood hang; see
// DESIGN.md ("Blocked-state introspection") for the post-mortem. Total
// thread count is therefore bounded by max_threads + (blocked
// computations); the paper's deadlock-freedom argument needs exactly
// that much, and the diag watchdog is the backstop that names runaway
// blocking instead of a silent cap-induced wedge.
//
// Idle workers retire after a timeout down to a configurable floor.
//
// Role in dispatch: every Runtime that does not run inline (a wall clock,
// or any clock under a schedule explorer's step hook) runs each root and
// async handler task as one task on its own pool; see core/runtime.hpp.
// The pool hands out threads and nothing more — the version gates order
// conflicting handler calls, as the paper's one-thread-per-computation
// model has them do.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace samoa::diag {
struct PoolState;
}

namespace samoa {

class ElasticThreadPool {
 public:
  struct Options {
    std::size_t min_threads = 1;
    /// Cap on *runnable* (non-parked) workers. Hitting it indicates a bug
    /// in the caller (e.g. unbounded recursion of non-blocking tasks).
    std::size_t max_threads = 1024;
    std::chrono::milliseconds idle_timeout{200};
  };

  ElasticThreadPool() : ElasticThreadPool(Options{}) {}
  explicit ElasticThreadPool(Options opts);
  ~ElasticThreadPool();

  ElasticThreadPool(const ElasticThreadPool&) = delete;
  ElasticThreadPool& operator=(const ElasticThreadPool&) = delete;

  /// Enqueue a task. Never blocks; grows the pool if all workers are busy.
  /// `tag` identifies the task's computation in diagnostics dumps (0 =
  /// untagged). Throws std::runtime_error after shutdown began.
  void submit(std::function<void()> task, std::uint64_t tag = 0);

  struct Task {
    std::function<void()> fn;
    std::uint64_t tag = 0;
  };

  /// Enqueue a burst of tasks under one lock acquisition (one capacity
  /// check, one broadcast) instead of per-task mutex traffic — the pool
  /// half of batched admission. Tasks run with the same guarantees as
  /// submit(); either the whole batch is enqueued or (after shutdown) none.
  void submit_batch(std::vector<Task> batch);

  /// Stop accepting tasks, run the backlog to completion, join all workers.
  void shutdown();

  std::size_t thread_count() const;
  std::size_t peak_thread_count() const;
  /// Workers currently parked in an instrumented wait (diag::ScopedWait).
  std::size_t parked_count() const;
  std::size_t peak_parked_count() const;
  std::size_t queue_depth() const;

  /// The pool whose worker the calling thread is, or null.
  static ElasticThreadPool* current();

  /// Called by diag::ScopedWait when this pool's worker blocks mid-task:
  /// the worker stops counting against max_threads, and if tasks are
  /// queued with nobody to run them the pool grows immediately — a
  /// runnable task must never wait on a parked worker.
  void note_worker_parked();
  void note_worker_unparked();

  /// Snapshot for diagnostics dumps (wait registry / watchdog).
  diag::PoolState diag_state() const;

 private:
  void worker_loop();
  void spawn_worker_locked();
  void reap_retired_locked();
  /// Grow while queued tasks outnumber idle workers and runnable capacity
  /// remains. Caller holds mu_.
  void ensure_capacity_locked();

  Options opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  std::vector<std::thread> workers_;
  std::vector<std::thread::id> retired_;
  std::unordered_map<std::thread::id, std::uint64_t> running_;  // worker -> task tag
  std::size_t idle_ = 0;
  std::size_t starting_ = 0;  // spawned, not yet entered worker_loop
  std::size_t live_ = 0;
  std::size_t parked_ = 0;
  std::size_t peak_ = 0;
  std::size_t peak_parked_ = 0;
  bool shutdown_ = false;
};

}  // namespace samoa
