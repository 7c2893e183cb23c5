// Chunked data-parallel loops over index ranges.
//
// parallel_for / parallel_reduce split [begin, end) into grains and run them
// on a ThreadPool. The grain is the "chunk" of the paper's chunking
// discussion: each task touches a contiguous slab of the columnar tables, so
// memory is streamed, not random-accessed. Grain size is an explicit
// parameter so bench_e4_chunking can sweep it.
//
// Ranges whose indices carry unequal work (YELT trials, whose occurrence
// counts vary) take the weighted parallel_for overload: the caller passes
// the work prefix it already holds (a YELT's offsets()), and the library
// cuts chunks of near-equal work, none below kMinTaskWork, so a small
// block runs inline or in a few tasks instead of in many tiny ones.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/require.hpp"

namespace riskan {

struct ParallelConfig {
  /// Pool to run on; nullptr means ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Indices per task; 0 lets the library pick (range / (8 * threads),
  /// clamped to at least 1; by work for the weighted overload).
  std::size_t grain = 0;
};

/// Least work (in the prefix's units: YELT occurrences) the weighted
/// parallel_for gives one task when it picks the chunking. A task hand-off
/// costs a few microseconds, about what the resolver's fused pass spends on
/// a thousand occurrences of a multi-contract book; the trial kernel spends
/// far more per occurrence. A 312-trial block of ~3,000 occurrences thus
/// runs in a few tasks, not in dozens of 9-trial ones.
inline constexpr std::uint64_t kMinTaskWork = 1024;

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

/// Submits body(cuts[c], cuts[c + 1]) for every chunk c to `pool` and
/// waits for all of them, rethrowing the first chunk exception.
template <typename Body>
void run_chunks(ThreadPool& pool, std::span<const std::size_t> cuts, const Body& body) {
  const std::size_t chunks = cuts.size() - 1;
  TaskGate gate(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = cuts[c];
    const std::size_t hi = cuts[c + 1];
    pool.submit([&body, &gate, lo, hi] { gate.run([&] { body(lo, hi); }); });
  }
  gate.wait();
}

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

  std::vector<std::size_t> cuts;
  cuts.reserve((range + grain - 1) / grain + 1);
  for (std::size_t lo = begin; lo < end; lo += grain) {
    cuts.push_back(lo);
  }
  cuts.push_back(end);
  detail::run_chunks(pool, cuts, body);
}

/// parallel_for over indices of unequal work. `work_prefix[i]` is the work
/// before index i (a YELT's offsets(): occurrences before trial i), so index
/// i weighs work_prefix[i + 1] - work_prefix[i]; the prefix must reach
/// index `end`. A set cfg.grain is obeyed exactly, as in the unweighted
/// overload. Otherwise the library cuts at most 8 x threads chunks of
/// near-equal work and none below kMinTaskWork: a range holding less than
/// twice that runs inline on the caller without touching any pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body, ParallelConfig cfg,
                  std::span<const std::uint64_t> work_prefix) {
  if (cfg.grain > 0) {
    parallel_for(begin, end, body, cfg);
    return;
  }
  RISKAN_REQUIRE(begin <= end, "parallel_for range is inverted");
  if (begin == end) {
    return;
  }
  RISKAN_REQUIRE(end < work_prefix.size() && work_prefix[begin] <= work_prefix[end],
                 "parallel_for work prefix must be non-decreasing over the range");
  const std::uint64_t first = work_prefix[begin];
  const std::uint64_t total = work_prefix[end] - first;
  if (total / kMinTaskWork <= 1) {
    body(begin, end);
    return;
  }
  ThreadPool& pool = cfg.pool ? *cfg.pool : ThreadPool::shared();
  const std::size_t chunks = std::min<std::uint64_t>(
      {total / kMinTaskWork, 8 * std::uint64_t{pool.thread_count()}, end - begin});
  if (chunks <= 1 || pool.thread_count() == 1) {
    body(begin, end);
    return;
  }

  // Chunk c ends at the first index whose prefix reaches c/chunks of the
  // work; an index heavier than a share absorbs the cuts that land in it.
  std::vector<std::size_t> cuts{begin};
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::uint64_t target = first + total / chunks * c + total % chunks * c / chunks;
    if (work_prefix[cuts.back()] >= target) {
      continue;  // the last chunk already holds this share
    }
    const auto from = work_prefix.begin() + static_cast<std::ptrdiff_t>(cuts.back() + 1);
    const auto to = work_prefix.begin() + static_cast<std::ptrdiff_t>(end);
    const auto cut =
        static_cast<std::size_t>(std::lower_bound(from, to, target) - work_prefix.begin());
    if (cut < end) {
      cuts.push_back(cut);
    }
  }
  cuts.push_back(end);
  if (cuts.size() == 2) {
    body(begin, end);
    return;
  }
  detail::run_chunks(pool, cuts, body);
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
