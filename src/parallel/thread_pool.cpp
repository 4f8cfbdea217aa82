#include "parallel/thread_pool.hpp"

#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace ara::parallel {

namespace {

// The CPU the calling thread last ran on, or -1 where unknown.
int current_cpu() {
#if defined(__linux__)
  return ::sched_getcpu();
#else
  return -1;
#endif
}

// Moves the calling worker onto the `index`-th CPU the process may use,
// counted from the one after `creator_cpu`, then hands back the full
// set: a starting place, not a pin. A scheduler that balances load may
// move the worker later; one that does not (a cpuset with load
// balancing off) would otherwise keep every worker on its creator's
// CPU, where n workers run no faster than one.
void start_on_own_cpu(std::size_t index, int creator_cpu) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  std::size_t first = 0;
  for (std::size_t k = 0; k < cpus.size(); ++k) {
    if (cpus[k] == creator_cpu) first = k + 1;
  }
  cpu_set_t own;
  CPU_ZERO(&own);
  CPU_SET(cpus[(first + index) % cpus.size()], &own);
  if (::sched_setaffinity(0, sizeof own, &own) == 0) {
    ::sched_setaffinity(0, sizeof allowed, &allowed);
  }
#else
  (void)index;
  (void)creator_cpu;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  const int creator_cpu = current_cpu();
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i, creator_cpu] {
      start_on_own_cpu(i, creator_cpu);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    auto err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace ara::parallel
