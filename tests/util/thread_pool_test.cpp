#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace datastage {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kJobs = 100;
  std::vector<std::atomic<int>> hits(kJobs);
  pool.run_indexed(kJobs, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ZeroJobBatchReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.run_indexed(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ResultsAttachToIndicesNotThreads) {
  ThreadPool pool(8);
  constexpr std::size_t kJobs = 64;
  std::vector<std::size_t> results(kJobs, 0);
  pool.run_indexed(kJobs, [&](std::size_t i) { results[i] = i * i; });
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPoolTest, LowestIndexExceptionWinsAndBatchDrains) {
  ThreadPool pool(4);
  constexpr std::size_t kJobs = 32;
  std::atomic<int> completed{0};
  try {
    pool.run_indexed(kJobs, [&](std::size_t i) {
      completed.fetch_add(1);
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Every job throws, so job 0's exception must be the one rethrown —
    // regardless of which worker ran it or in what order jobs finished.
    EXPECT_STREQ(e.what(), "0");
  }
  EXPECT_EQ(completed.load(), static_cast<int>(kJobs));  // remaining jobs still ran
}

TEST(ThreadPoolTest, PoolIsReusableAfterAnException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.run_indexed(8, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<int> sum{0};
  pool.run_indexed(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

// Regression: a worker that joined batch N late must never claim an index
// from batch N+1 while still holding batch N's job pointer. Hammering many
// small back-to-back batches makes that window wide enough to catch under
// the sanitizers.
TEST(ThreadPoolTest, RapidSequentialBatchesStaySound) {
  ThreadPool pool(8);
  for (int batch = 0; batch < 200; ++batch) {
    std::vector<int> results(3, -1);
    pool.run_indexed(results.size(),
                     [&](std::size_t i) { results[i] = batch; });
    for (const int r : results) ASSERT_EQ(r, batch);
  }
}

TEST(ThreadPoolTest, DestructionWithoutWorkIsClean) {
  for (int i = 0; i < 8; ++i) {
    ThreadPool pool(4);  // spawn and join idle workers repeatedly
  }
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.run_indexed(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, HardwareJobsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_jobs(), 1u);
}

TEST(ThreadPoolParallelForTest, CoversEveryIndexWithValidWorkerIds) {
  ThreadPool pool(4);
  constexpr std::size_t kJobs = 257;  // not a multiple of any chunk size
  std::vector<std::atomic<int>> hits(kJobs);
  std::atomic<bool> worker_in_range{true};
  pool.parallel_for(kJobs, [&](std::size_t worker, std::size_t i) {
    if (worker >= pool.thread_count()) worker_in_range.store(false);
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(worker_in_range.load());
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolParallelForTest, LowestIndexExceptionWins) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(64, [&](std::size_t, std::size_t i) {
      if (i % 2 == 1) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "1");  // smallest throwing index, not first-to-throw
  }
}

TEST(ThreadPoolParallelForTest, PerWorkerScratchNeverShared) {
  // The worker id exists so callers can keep per-worker scratch buffers; two
  // jobs running concurrently must never see the same worker id.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> in_use(pool.thread_count());
  std::atomic<bool> collision{false};
  pool.parallel_for(400, [&](std::size_t worker, std::size_t) {
    if (in_use[worker].fetch_add(1) != 0) collision.store(true);
    in_use[worker].fetch_sub(1);
  });
  EXPECT_FALSE(collision.load());
}

}  // namespace
}  // namespace datastage
