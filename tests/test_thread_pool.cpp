#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace ara::parallel {
namespace {

TEST(ThreadPool, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran = 1; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPool, TaskExceptionRethrownAtBarrier) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Pool remains usable after the failure.
  std::atomic<int> ok{0};
  pool.submit([&ok] { ok = 1; });
  pool.wait_idle();
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPool, OnlyFirstExceptionIsKept) {
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // error cleared; no rethrow
}

TEST(ThreadPool, ManyWorkersManyTasks) {
  ThreadPool pool(16);
  std::atomic<std::int64_t> sum{0};
  for (int i = 1; i <= 1000; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 500500);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // no wait_idle: destructor must still run or drain safely
  }
  EXPECT_EQ(count.load(), 50);
}

#if defined(__linux__)
// A worker's own CPU is where it starts, not a pin: every worker ends
// up with the affinity it inherited from the thread that made the pool.
TEST(ThreadPool, WorkersKeepTheCreatorsAffinity) {
  cpu_set_t creator;
  ASSERT_EQ(::sched_getaffinity(0, sizeof creator, &creator), 0);
  constexpr std::size_t kWorkers = 6;
  std::vector<cpu_set_t> seen(kWorkers);
  std::atomic<std::size_t> started{0};
  ThreadPool pool(kWorkers);
  for (std::size_t i = 0; i < kWorkers; ++i) {
    pool.submit([&, i] {
      // Hold every task until all have started, so each worker runs one.
      started.fetch_add(1);
      while (started.load() < kWorkers) std::this_thread::yield();
      ASSERT_EQ(::sched_getaffinity(0, sizeof seen[i], &seen[i]), 0);
    });
  }
  pool.wait_idle();
  for (const cpu_set_t& s : seen) EXPECT_TRUE(CPU_EQUAL(&s, &creator));
}
#endif

}  // namespace
}  // namespace ara::parallel
