// Fixed-size worker thread pool used by the multi-core and multi-GPU
// engines. Design follows the "one pool, many waves" model: tasks are
// submitted individually, and `wait_idle()` provides a barrier so the
// pool can be reused across simulation phases without re-spawning
// threads (thread creation cost would pollute the timing measurements
// the benchmarks care about).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ara::parallel {

/// A minimal fixed-size thread pool with FIFO task queue.
///
/// Each worker starts on its own CPU, round-robin over the CPUs the
/// process may use from the one after its creator's, and keeps the
/// full set as its affinity: on a host whose scheduler does not
/// balance load, workers that all started on the creator's CPU would
/// share it for good.
///
/// Exceptions thrown by tasks are captured; the first one is rethrown
/// from `wait_idle()` so callers observe worker failures at the barrier.
class ThreadPool {
 public:
  /// Creates a pool with `threads` workers. `threads == 0` is clamped
  /// to 1 (a pool must be able to make progress).
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  /// Enqueues a task for execution. Thread-safe.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  /// Rethrows the first exception raised by any task since the last
  /// call to `wait_idle()`.
  void wait_idle();

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks queued plus tasks currently executing — the pool's backlog
  /// at the instant of the call (naturally stale by the time the
  /// caller acts on it).
  std::size_t pending() const {
    std::lock_guard lock(mutex_);
    return queue_.size() + active_;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace ara::parallel
