// Thread pool, parallel_for/reduce and the SPSC queue.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/spsc_queue.hpp"
#include "parallel/thread_pool.hpp"
#include "util/require.hpp"

namespace riskan {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10'000);
  parallel_for(
      0, touched.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          touched[i].fetch_add(1);
        }
      },
      ParallelConfig{&pool, 64});
  for (const auto& t : touched) {
    ASSERT_EQ(t.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, InvertedRangeRejected) {
  EXPECT_THROW(parallel_for(5, 4, [](std::size_t, std::size_t) {}), ContractViolation);
}

TEST(ParallelFor, GrainCoveringRangeRunsInlineOnCaller) {
  // One chunk covers the range: the body runs once, on the calling thread.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  bool on_caller = false;
  parallel_for(
      10, 20,
      [&](std::size_t lo, std::size_t hi) {
        ++calls;
        on_caller = std::this_thread::get_id() == caller;
        EXPECT_EQ(lo, 10u);
        EXPECT_EQ(hi, 20u);
      },
      ParallelConfig{&pool, 10});
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(on_caller);
}

TEST(ParallelFor, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  bool on_caller = false;
  parallel_for(
      0, 1000,
      [&](std::size_t lo, std::size_t hi) {
        ++calls;
        on_caller = std::this_thread::get_id() == caller;
        EXPECT_EQ(hi - lo, 1000u);
      },
      ParallelConfig{&pool, 0});
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(on_caller);
}

TEST(ParallelFor, ChunksRespectGrain) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(
      0, 1000,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard lock(m);
        chunks.emplace_back(lo, hi);
      },
      ParallelConfig{&pool, 100});
  EXPECT_EQ(chunks.size(), 10u);
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LE(hi - lo, 100u);
  }
}

TEST(ParallelFor, BodyExceptionPropagatesToCaller) {
  // A throwing chunk must not escape into the pool's worker loop (which
  // would terminate the process): every chunk still runs and the caller
  // gets the exception once they have all finished.
  ThreadPool pool(4);
  std::atomic<std::size_t> visited{0};
  EXPECT_THROW(parallel_for(
                   0, 64,
                   [&](std::size_t lo, std::size_t hi) {
                     visited.fetch_add(hi - lo, std::memory_order_relaxed);
                     if (lo <= 17 && 17 < hi) {
                       throw std::runtime_error("chunk failed");
                     }
                   },
                   ParallelConfig{&pool, 1}),
               std::runtime_error);
  EXPECT_EQ(visited.load(), 64u);
  // The pool survives and keeps serving work.
  std::atomic<int> after{0};
  parallel_for(
      0, 8, [&](std::size_t lo, std::size_t hi) { after.fetch_add(static_cast<int>(hi - lo)); },
      ParallelConfig{&pool, 1});
  EXPECT_EQ(after.load(), 8);
}

TEST(ParallelReduce, ChunkExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW((void)parallel_reduce<long>(
                   0, 100, 0L,
                   [](std::size_t lo, std::size_t hi) -> long {
                     if (lo >= 50) {
                       throw std::out_of_range("chunk failed");
                     }
                     return static_cast<long>(hi - lo);
                   },
                   [](long a, long b) { return a + b; }, ParallelConfig{&pool, 10}),
               std::out_of_range);
}

TEST(ParallelReduce, SumsCorrectly) {
  ThreadPool pool(4);
  const double total = parallel_reduce<double>(
      1, 10'001, 0.0,
      [](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          s += static_cast<double>(i);
        }
        return s;
      },
      [](double a, double b) { return a + b; }, ParallelConfig{&pool, 128});
  EXPECT_DOUBLE_EQ(total, 10'000.0 * 10'001.0 / 2.0);
}

TEST(ParallelReduce, DeterministicForFixedGrain) {
  ThreadPool pool(4);
  auto run = [&pool] {
    return parallel_reduce<double>(
        0, 100'000, 0.0,
        [](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            s += 1.0 / (1.0 + static_cast<double>(i));
          }
          return s;
        },
        [](double a, double b) { return a + b; }, ParallelConfig{&pool, 1024});
  };
  const double a = run();
  const double b = run();
  EXPECT_EQ(a, b);  // bitwise: chunk combination order is fixed
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  int calls = 0;
  const double total = parallel_reduce<double>(
      7, 7, 42.0,
      [&](std::size_t, std::size_t) {
        ++calls;
        return 1.0;
      },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(total, 42.0);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelReduce, InvertedRangeRejected) {
  EXPECT_THROW((void)parallel_reduce<int>(
                   5, 4, 0, [](std::size_t, std::size_t) { return 0; },
                   [](int a, int b) { return a + b; }),
               ContractViolation);
}

TEST(ParallelReduce, CombinesPartialsInChunkOrder) {
  // A non-commutative combine exposes the order: concatenating each
  // chunk's first index must list the chunks left to right.
  ThreadPool pool(4);
  const auto order = parallel_reduce<std::vector<std::size_t>>(
      0, 100, {},
      [](std::size_t lo, std::size_t) { return std::vector<std::size_t>{lo}; },
      [](std::vector<std::size_t> a, std::vector<std::size_t> b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
      },
      ParallelConfig{&pool, 10});
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t c = 0; c < order.size(); ++c) {
    EXPECT_EQ(order[c], c * 10);
  }
}

TEST(SpscQueue, FifoOrder) {
  SpscQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(queue.try_push(i));
  }
  EXPECT_FALSE(queue.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    const auto v = queue.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(SpscQueue, CapacityRoundsToPowerOfTwo) {
  SpscQueue<int> queue(5);
  EXPECT_EQ(queue.capacity(), 8u);
  EXPECT_THROW(SpscQueue<int>(1), ContractViolation);
}

TEST(SpscQueue, ConcurrentProducerConsumer) {
  SpscQueue<int> queue(64);
  constexpr int kCount = 100'000;
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (queue.try_push(i)) {
        ++i;
      }
    }
  });
  long long sum = 0;
  int received = 0;
  while (received < kCount) {
    if (auto v = queue.try_pop()) {
      sum += *v;
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kCount - 1) * kCount / 2);
}

}  // namespace
}  // namespace riskan
