#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
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
  // hardware_concurrency == 1 machines get a workerless pool; everything
  // must still run (inline, on the caller).
  ThreadPool pool(0);
  std::atomic<int> sum{0};
  pool.parallel_for(64, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
  pool.submit([&] { sum.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 64 * 63 / 2 + 1);
}

TEST(ThreadPool, MoreIterationsThanThreadsSelfBalance) {
  ThreadPool pool(2);
  constexpr std::size_t kN = 37;  // not a multiple of participants
  std::atomic<std::size_t> done{0};
  pool.parallel_for(kN, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), kN);
}

TEST(ThreadPool, SubmitAndWaitIdleDrains) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
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

TEST(ThreadPool, ParallelForBlocksCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1003;  // not a multiple of any block size below
  for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for_blocks(kN, block, [&](std::size_t begin, std::size_t end) {
      ASSERT_LE(end, kN);
      ASSERT_LT(begin, end);
      ASSERT_LE(end - begin, block);
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "block " << block << ", index " << i;
    }
  }
}

TEST(ThreadPool, ParallelForBlocksZeroWorkersRunsInline) {
  // ThreadPool(0) is the default sizing, hardware_concurrency - 1 workers:
  // inline only on a 1-core host. Elsewhere helpers add to the sum too, so
  // it is atomic (a plain sum raced and lost blocks on multi-core hosts).
  ThreadPool pool(0);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for_blocks(100, 9, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  pool.parallel_for_blocks(0, 4, [&](std::size_t, std::size_t) { sum = 0; });
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);  // n == 0: body never runs
}

TEST(ThreadPool, ParallelForBlocksZeroBlockTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<std::size_t> n{0};
  pool.parallel_for_blocks(25, 0, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(end, begin + 1);
    n.fetch_add(end - begin);
  });
  EXPECT_EQ(n.load(), 25u);
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
