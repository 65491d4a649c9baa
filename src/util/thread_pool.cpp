#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "diag/wait_registry.hpp"

namespace samoa {

namespace {
thread_local ElasticThreadPool* t_current_pool = nullptr;
}

ElasticThreadPool* ElasticThreadPool::current() { return t_current_pool; }

ElasticThreadPool::ElasticThreadPool(Options opts) : opts_(opts) {
  if (opts_.min_threads > opts_.max_threads) opts_.min_threads = opts_.max_threads;
  {
    std::unique_lock lock(mu_);
    for (std::size_t i = 0; i < opts_.min_threads; ++i) spawn_worker_locked();
  }
  diag::WaitRegistry::instance().register_pool(this);
}

ElasticThreadPool::~ElasticThreadPool() {
  diag::WaitRegistry::instance().unregister_pool(this);
  shutdown();
}

void ElasticThreadPool::spawn_worker_locked() {
  workers_.emplace_back([this] { worker_loop(); });
  ++live_;
  ++starting_;  // counts as available until it enters worker_loop
  peak_ = std::max(peak_, live_);
}

void ElasticThreadPool::reap_retired_locked() {
  if (retired_.empty()) return;
  for (auto it = workers_.begin(); it != workers_.end();) {
    const bool is_retired =
        std::find(retired_.begin(), retired_.end(), it->get_id()) != retired_.end();
    if (is_retired) {
      it->join();
      it = workers_.erase(it);
    } else {
      ++it;
    }
  }
  retired_.clear();
}

void ElasticThreadPool::ensure_capacity_locked() {
  // Grow while queued work exceeds the number of waiting workers. The
  // idle_ count can be momentarily stale (a notified worker decrements it
  // only after re-acquiring the lock), so comparing against the queue
  // depth — rather than testing idle_ == 0 — is what prevents a task from
  // being stranded while every live worker is busy. Workers parked inside
  // a version gate (parked_) do not consume runnable capacity: blocked
  // computations must never prevent the task that would unblock them from
  // getting a thread (the E2 join-flood deadlock; see header).
  while (tasks_.size() > idle_ + starting_ && live_ - parked_ < opts_.max_threads) {
    spawn_worker_locked();
  }
}

void ElasticThreadPool::submit(std::function<void()> task, std::uint64_t tag) {
  std::unique_lock lock(mu_);
  if (shutdown_) throw std::runtime_error("ElasticThreadPool: submit after shutdown");
  tasks_.push_back(Task{std::move(task), tag});
  reap_retired_locked();
  ensure_capacity_locked();
  cv_.notify_one();
}

void ElasticThreadPool::note_worker_parked() {
  std::unique_lock lock(mu_);
  ++parked_;
  peak_parked_ = std::max(peak_parked_, parked_);
  ensure_capacity_locked();
  cv_.notify_one();
}

void ElasticThreadPool::note_worker_unparked() {
  std::unique_lock lock(mu_);
  // The worker resumes runnable; live_ - parked_ may transiently exceed
  // max_threads until idle workers retire. That overshoot is benign — the
  // cap bounds growth, not concurrency of already-live workers.
  --parked_;
}

void ElasticThreadPool::worker_loop() {
  t_current_pool = this;
  std::unique_lock lock(mu_);
  --starting_;
  for (;;) {
    ++idle_;
    const bool has_work = cv_.wait_for(lock, opts_.idle_timeout, [this] {
      return !tasks_.empty() || shutdown_;
    });
    --idle_;
    if (!tasks_.empty()) {
      Task task = std::move(tasks_.front());
      tasks_.pop_front();
      running_[std::this_thread::get_id()] = task.tag;
      lock.unlock();
      task.fn();  // exceptions from tasks are the caller's responsibility
      diag::WaitRegistry::instance().note_progress();
      lock.lock();
      running_.erase(std::this_thread::get_id());
      continue;
    }
    if (shutdown_) break;
    if (!has_work && live_ > opts_.min_threads) {
      // Idle timeout: retire this worker. It cannot join itself, so it
      // leaves its id for the next submit/shutdown to reap.
      retired_.push_back(std::this_thread::get_id());
      --live_;
      t_current_pool = nullptr;
      return;
    }
  }
  --live_;
  t_current_pool = nullptr;
}

void ElasticThreadPool::shutdown() {
  std::vector<std::thread> to_join;
  {
    std::unique_lock lock(mu_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
    cv_.notify_all();
    to_join.swap(workers_);
    retired_.clear();
  }
  for (auto& t : to_join) t.join();
}

std::size_t ElasticThreadPool::thread_count() const {
  std::unique_lock lock(mu_);
  return live_;
}

std::size_t ElasticThreadPool::peak_thread_count() const {
  std::unique_lock lock(mu_);
  return peak_;
}

std::size_t ElasticThreadPool::parked_count() const {
  std::unique_lock lock(mu_);
  return parked_;
}

std::size_t ElasticThreadPool::peak_parked_count() const {
  std::unique_lock lock(mu_);
  return peak_parked_;
}

std::size_t ElasticThreadPool::queue_depth() const {
  std::unique_lock lock(mu_);
  return tasks_.size();
}

diag::PoolState ElasticThreadPool::diag_state() const {
  diag::PoolState s;
  std::unique_lock lock(mu_);
  s.pool = this;
  s.live = live_;
  s.idle = idle_;
  s.parked = parked_;
  s.queued = tasks_.size();
  s.max_threads = opts_.max_threads;
  s.peak = peak_;
  s.queued_tags.reserve(tasks_.size());
  for (const Task& t : tasks_) s.queued_tags.push_back(t.tag);
  s.running_tags.reserve(running_.size());
  for (const auto& [tid, tag] : running_) s.running_tags.push_back(tag);
  return s;
}

}  // namespace samoa
