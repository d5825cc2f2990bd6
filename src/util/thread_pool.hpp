// Small reusable worker pool for one data-parallel loop at a time.
//
// The sharded memory scanner cuts physical memory into frame-aligned
// pieces and runs them here. The pool has one primitive, a blocking
// `parallel_for` in which the calling thread takes part, so a pool of N
// workers applies N+1 threads to the loop and a zero-worker pool is a
// plain serial loop.
//
// Wake-up: the caller publishes the loop (body, count, a fresh
// generation) under the pool mutex, wakes every worker with one
// broadcast, and starts claiming indices from a shared counter itself.
// A worker joins only while the loop is still published; the caller
// unpublishes it once the counter is exhausted and waits for the workers
// that joined to leave, so nothing touches its stack after return.
//
// The workers start with the first loop that can use them, so a process
// that only runs one-item loops (every serial scan) stays
// single-threaded, and glibc and libstdc++ keep skipping the locks and
// atomics they need once a second thread exists.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace keyguard::util {

class ThreadPool {
 public:
  /// A pool of exactly `workers` worker threads, started by the first
  /// loop of more than one item; 0 means every loop runs inline on its
  /// caller.
  explicit ThreadPool(std::size_t workers) : size_(workers) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excludes the calling thread).
  std::size_t size() const noexcept { return size_; }

  /// Runs body(0..n-1) across the workers plus the calling thread and
  /// returns when all iterations are done and no worker still holds
  /// `body`. Iterations are claimed one at a time from a shared counter,
  /// so uneven iteration costs self-balance. A loop of one item, a
  /// workerless pool, and a call made while another loop is in flight
  /// (from another thread, or from inside a body) run inline on the
  /// caller. `body` must not throw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Process-wide pool, created on first use: hardware_concurrency - 1
  /// workers (the caller is the +1), or KEYGUARD_POOL_WORKERS when set.
  static ThreadPool& shared();

 private:
  void worker_loop();

  const std::size_t size_;
  std::mutex mu_;
  std::condition_variable wake_;  // workers wait for a published loop
  std::condition_variable done_;  // the caller waits for joined workers
  // The published loop; all guarded by mu_ except the claim counter.
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::uint64_t generation_ = 0;  // bumped per loop, so a worker joins once
  std::size_t joined_ = 0;        // workers inside the current loop
  bool busy_ = false;             // a loop is in flight
  bool stopping_ = false;
  std::atomic<std::size_t> next_{0};
  std::vector<std::thread> workers_;  // empty until the first such loop
};

}  // namespace keyguard::util
