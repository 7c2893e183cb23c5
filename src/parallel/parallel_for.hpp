// Chunked data-parallel loops over index ranges.
//
// parallel_for / parallel_reduce split [begin, end) into grains and run them
// on a ThreadPool. The grain is the "chunk" of the paper's chunking
// discussion: each task touches a contiguous slab of the columnar tables, so
// memory is streamed, not random-accessed. Grain size is an explicit
// parameter so bench_e4_chunking can sweep it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/require.hpp"

namespace riskan {

struct ParallelConfig {
  /// Pool to run on; nullptr means ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Indices per task; 0 lets the library pick (range / (8 * threads),
  /// clamped to at least 1).
  std::size_t grain = 0;
};

namespace detail {

inline std::size_t resolve_grain(std::size_t range, std::size_t threads, std::size_t grain) {
  if (grain > 0) {
    return grain;
  }
  const std::size_t tasks = threads * 8;
  return std::max<std::size_t>(1, range / std::max<std::size_t>(1, tasks));
}

/// Blocks until `remaining` reaches zero. A tiny latch (std::latch needs a
/// fixed count at construction, which the chunk loop computes anyway, but
/// this version also lets the caller run chunks inline when the pool is the
/// calling thread's own). It also carries the first exception a chunk threw
/// back to the caller: a throw must not escape into the pool's worker loop
/// (std::terminate), and every chunk still counts down so wait() returns.
class TaskGate {
 public:
  explicit TaskGate(std::size_t count) : remaining_(count) {}

  /// Runs one chunk and counts it down, catching whatever it throws.
  template <typename Fn>
  void run(const Fn& chunk) noexcept {
    std::exception_ptr error;
    try {
      chunk();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(mutex_);
    if (error && !error_) {
      error_ = std::move(error);
    }
    if (--remaining_ == 0) {
      cv_.notify_all();
    }
  }

  /// Waits for every chunk, then rethrows the first chunk exception.
  void wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
    if (error_) {
      std::rethrow_exception(error_);
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t remaining_;
  std::exception_ptr error_;
};

}  // namespace detail

/// Runs body(chunk_begin, chunk_end) for consecutive chunks of [begin, end).
/// The body must be safe to call concurrently on disjoint chunks. If a chunk
/// throws, the other chunks still run and the first exception is rethrown
/// on the caller once all of them have finished.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  ParallelConfig cfg = {}) {
  RISKAN_REQUIRE(begin <= end, "parallel_for range is inverted");
  if (begin == end) {
    return;
  }
  const std::size_t range = end - begin;
  if (cfg.grain >= range) {
    // One chunk covers the range: run inline without touching (or lazily
    // constructing) any pool — sequential callers rely on this.
    body(begin, end);
    return;
  }
  ThreadPool& pool = cfg.pool ? *cfg.pool : ThreadPool::shared();
  const std::size_t grain = detail::resolve_grain(range, pool.thread_count(), cfg.grain);

  if (range <= grain || pool.thread_count() == 1) {
    body(begin, end);
    return;
  }

  const std::size_t chunks = (range + grain - 1) / grain;
  detail::TaskGate gate(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    pool.submit([&body, &gate, lo, hi] { gate.run([&] { body(lo, hi); }); });
  }
  gate.wait();
}

/// Parallel reduction: `chunk_fn(lo, hi)` produces a partial of type T for
/// each chunk; partials are combined left-to-right with `combine` (chunk
/// order, so floating-point reductions are deterministic for a fixed grain).
/// A throwing chunk propagates to the caller as in parallel_for.
template <typename T, typename ChunkFn, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, const ChunkFn& chunk_fn,
                  const Combine& combine, ParallelConfig cfg = {}) {
  RISKAN_REQUIRE(begin <= end, "parallel_reduce range is inverted");
  if (begin == end) {
    return identity;
  }
  const std::size_t range = end - begin;
  if (cfg.grain >= range) {
    // Same pool-free inline path as parallel_for.
    return combine(std::move(identity), chunk_fn(begin, end));
  }
  ThreadPool& pool = cfg.pool ? *cfg.pool : ThreadPool::shared();
  const std::size_t grain = detail::resolve_grain(range, pool.thread_count(), cfg.grain);

  if (range <= grain || pool.thread_count() == 1) {
    return combine(std::move(identity), chunk_fn(begin, end));
  }

  const std::size_t chunks = (range + grain - 1) / grain;
  std::vector<T> partials(chunks, identity);
  detail::TaskGate gate(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    pool.submit([&chunk_fn, &partials, &gate, c, lo, hi] {
      gate.run([&] { partials[c] = chunk_fn(lo, hi); });
    });
  }
  gate.wait();

  T result = std::move(identity);
  for (auto& partial : partials) {
    result = combine(std::move(result), std::move(partial));
  }
  return result;
}

}  // namespace riskan
