#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/flags.hpp"

namespace keyguard::util {

namespace {

std::size_t default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 0;  // the calling thread is the +1
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? default_worker_count() : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  if (workers_.empty()) {
    job();  // no workers: run inline so submit never deadlocks
    return;
  }
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lk(mu_);
      work_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    job();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_blocks(n, 1, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

void ThreadPool::parallel_for_blocks(
    std::size_t n, std::size_t block,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (block == 0) block = 1;
  const std::size_t blocks = (n + block - 1) / block;
  if (workers_.empty() || blocks == 1) {
    for (std::size_t b = 0; b < n; b += block) {
      body(b, std::min(n, b + block));
    }
    return;
  }

  // All participants claim blocks from one counter; the caller blocks
  // until every helper it enlisted has drained out.
  struct ForState {
    std::atomic<std::size_t> next{0};
    std::size_t helpers_active = 0;  // guarded by mu
    std::mutex mu;
    std::condition_variable done;
  } st;

  auto run_share = [&st, &body, n, block, blocks] {
    std::size_t b;
    while ((b = st.next.fetch_add(1, std::memory_order_relaxed)) < blocks) {
      const std::size_t begin = b * block;
      body(begin, std::min(n, begin + block));
    }
  };

  const std::size_t helpers = std::min(workers_.size(), blocks - 1);
  st.helpers_active = helpers;
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([&st, run_share] {
      run_share();
      // `st` lives on the caller's stack and dies as soon as the caller
      // sees zero. Decrementing and notifying under the lock means the
      // caller cannot observe zero until this helper has released the
      // mutex, its last touch of `st`.
      std::lock_guard lk(st.mu);
      if (--st.helpers_active == 0) st.done.notify_all();
    });
  }
  run_share();
  std::unique_lock lk(st.mu);
  st.done.wait(lk, [&st] { return st.helpers_active == 0; });
}

ThreadPool& ThreadPool::shared() {
  // KEYGUARD_POOL_WORKERS pins the worker count — tests/run_sanitized.sh
  // sets it so TSan sees real cross-thread traffic even on 1-core boxes,
  // where the default sizing would make every parallel_for run inline.
  static ThreadPool pool(static_cast<std::size_t>(
      std::max<std::int64_t>(0, env_int("KEYGUARD_POOL_WORKERS", 0))));
  return pool;
}

}  // namespace keyguard::util
