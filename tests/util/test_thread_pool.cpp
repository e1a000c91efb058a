// ThreadPool unit tests. The pool backs the parallel replay harness;
// these tests pin its contract — results
// arrive through futures, exceptions propagate, the destructor drains the
// queue — and give the TSan CI lane a direct workout of the guarded
// queue/stop-flag paths rather than only the bench-driven one.
#include "sns/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace {

using sns::util::ThreadPool;

TEST(ThreadPool, ReportsAtLeastOneWorker) {
  ThreadPool pool;  // 0 = hardware concurrency, clamped to >= 1
  EXPECT_GE(pool.threadCount(), 1u);

  ThreadPool fixed(3);
  EXPECT_EQ(fixed.threadCount(), 3u);
}

TEST(ThreadPool, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(2);
  auto doubled = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(doubled.get(), 42);
}

TEST(ThreadPool, RunsManyTasksExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  std::vector<std::future<int>> results;
  results.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    results.push_back(pool.submit([i, &ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return i;
    }));
  }
  long long sum = 0;
  for (auto& f : results) sum += f.get();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(sum, static_cast<long long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPool, ExceptionsPropagateThroughTheFuture) {
  ThreadPool pool(2);
  auto poisoned = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(poisoned.get(), std::runtime_error);

  // The pool survives a throwing task: later submissions still run.
  auto after = pool.submit([] { return 7; });
  EXPECT_EQ(after.get(), 7);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  {
    ThreadPool pool(1);  // single worker so most tasks queue up
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool: every submitted task must have run
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, DisjointShardWritesJoinCleanly) {
  // Workers fill disjoint ranges of a caller-owned scratch array; the
  // caller reads only after joining.
  ThreadPool pool(4);
  constexpr int kShards = 8;
  constexpr int kPerShard = 1000;
  std::vector<int> scratch(kShards * kPerShard, 0);
  std::vector<std::future<void>> joins;
  joins.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    joins.push_back(pool.submit([s, &scratch] {
      for (int i = 0; i < kPerShard; ++i) scratch[s * kPerShard + i] = s + 1;
    }));
  }
  for (auto& f : joins) f.get();
  long long sum = std::accumulate(scratch.begin(), scratch.end(), 0LL);
  long long want = 0;
  for (int s = 0; s < kShards; ++s) want += static_cast<long long>(s + 1) * kPerShard;
  EXPECT_EQ(sum, want);
}

}  // namespace
