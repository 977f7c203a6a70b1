// Minimal work-stealing-free thread pool for embarrassingly parallel batches
// (signature verification sweeps, multi-seed experiment fans). The simulator
// itself is single-threaded and deterministic; the pool is only used where
// task outputs are order-independent.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace srbb {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  /// Block until every submitted task has finished.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// The process-wide pool, one worker per core, created on first use. Batch
/// signature checks and state-root re-hashing share it: a simulation holds
/// an execution oracle per validator, and a pool each would multiply the
/// threads without adding cores. Never call parallel_for on it from one of
/// its own workers.
ThreadPool& shared_pool();

}  // namespace srbb
