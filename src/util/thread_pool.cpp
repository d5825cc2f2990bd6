#include "util/thread_pool.hpp"

#include "util/flags.hpp"

namespace keyguard::util {

namespace {

void drain(std::atomic<std::size_t>& next, std::size_t n,
           const std::function<void(std::size_t)>& body) {
  std::size_t i;
  while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) body(i);
}

}  // namespace

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lk(mu_);
  for (;;) {
    wake_.wait(lk, [&] {
      return stopping_ || (body_ != nullptr && generation_ != seen);
    });
    if (stopping_) return;
    seen = generation_;
    const auto& body = *body_;
    const std::size_t n = n_;
    ++joined_;
    lk.unlock();
    drain(next_, n, body);
    lk.lock();
    // Decrement and notify under the lock: the caller cannot see zero
    // until this worker releases the mutex, its last touch of the loop.
    if (--joined_ == 0) done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  bool lead = false;
  if (n > 1 && size_ > 0) {
    std::lock_guard lk(mu_);
    if (!busy_) {
      // New workers block on mu_ until this loop is published, then join.
      for (std::size_t i = workers_.size(); i < size_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
      }
      busy_ = lead = true;
      body_ = &body;
      n_ = n;
      next_.store(0, std::memory_order_relaxed);
      ++generation_;
    }
  }
  if (!lead) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  wake_.notify_all();
  drain(next_, n, body);
  std::unique_lock lk(mu_);
  body_ = nullptr;  // workers that wake from here on stay asleep
  done_.wait(lk, [this] { return joined_ == 0; });
  busy_ = false;
}

ThreadPool& ThreadPool::shared() {
  // KEYGUARD_POOL_WORKERS pins the worker count — tests/run_sanitized.sh
  // sets it so TSan sees real cross-thread traffic even on 1-core boxes,
  // where the machine sizing would make every parallel_for run inline.
  static ThreadPool pool([] {
    const std::int64_t env = env_int("KEYGUARD_POOL_WORKERS", -1);
    if (env >= 0) return static_cast<std::size_t>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 1 ? hw - 1 : 0);
  }());
  return pool;
}

}  // namespace keyguard::util
