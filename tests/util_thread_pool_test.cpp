#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

namespace keyguard::util {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsSerially) {
  // A workerless pool runs every loop inline, on the caller, in order.
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(64, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, MoreIterationsThanThreadsSelfBalance) {
  ThreadPool pool(2);
  constexpr std::size_t kN = 37;  // not a multiple of participants
  std::atomic<std::size_t> done{0};
  pool.parallel_for(kN, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), kN);
}

TEST(ThreadPool, ReusableAcrossManyParallelFors) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> n{0};
    pool.parallel_for(16, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 16u) << "round " << round;
  }
}

TEST(ThreadPool, SharedPoolSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, WorkersStartWithTheFirstLoopThatCanUseThem) {
  // One-item loops never start a thread, so a process whose scans are all
  // serial stays single-threaded.
  const auto threads = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  const auto before = threads();
  ThreadPool pool(3);
  int ran = 0;
  pool.parallel_for(1, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(threads(), before);
  std::atomic<int> hits{0};
  pool.parallel_for(4, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(threads(), before + 3);
}

TEST(ThreadPool, ConcurrentCallersEachCoverEveryIndexOnce) {
  // One loop is published at a time; the other callers run theirs inline.
  // Either way each caller's loop covers its own indices exactly once.
  ThreadPool pool(3);
  constexpr std::size_t kN = 500;
  constexpr int kCallers = 3;
  constexpr int kRounds = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        pool.parallel_for(kN, [&](std::size_t i) { hits[c][i].fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i].load(), kRounds) << "caller " << c << ", index " << i;
    }
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // A body that calls back into the pool runs the inner loop inline on
  // whichever thread is executing it, so nesting cannot deadlock.
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner, [&](std::size_t i) { hits[o * kInner + i].fetch_add(1); });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

TEST(ThreadPool, TinyParallelForStressReturnsOnlyAfterHelpersLetGo) {
  // 10^5 back-to-back tiny loops. Each call's completion state lives on
  // the caller's stack and dies the moment parallel_for returns, so a
  // helper that still touches it after reporting done is a stack
  // use-after-return: tests/run_sanitized.sh runs this case under ASan
  // (detect_stack_use_after_return=1) and TSan.
  ThreadPool pool(3);
  constexpr int kCalls = 100000;
  std::atomic<int> ran{0};
  for (int c = 0; c < kCalls; ++c) {
    pool.parallel_for(4, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(ran.load(), 4 * kCalls);
}

}  // namespace
}  // namespace keyguard::util
