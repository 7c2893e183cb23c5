// Work-stealing-free, queue-based thread pool.
//
// This is the "accumulate large quantities of physical memory to support
// in-memory analytics" substrate of the paper: all worker threads share the
// process address space, and the aggregate-analysis engines schedule chunks
// of trials onto it (src/core/aggregate_engine.*). Kept deliberately simple
// and predictable — one mutex-protected queue — because the engines submit
// coarse chunks (thousands of trials each), so queue contention is
// negligible and correctness is easy to reason about.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace riskan {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw; a throwing task terminates
  /// (parallel_for/parallel_reduce catch at chunk boundaries and rethrow on
  /// the caller).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Process-wide default pool (lazily constructed, sized to hardware).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace riskan
