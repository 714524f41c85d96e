#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = std::max<std::size_t>(threads, 1);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DS_ASSERT_MSG(job_ == nullptr, "destroying ThreadPool with a batch in flight");
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::hardware_jobs() {
  const unsigned reported = std::thread::hardware_concurrency();
  return reported == 0 ? 1 : static_cast<std::size_t>(reported);
}

void ThreadPool::start_batch_locked(
    std::size_t job_count, const std::function<void(std::size_t, std::size_t)>* job) {
  DS_ASSERT_MSG(job_ == nullptr, "batch already in flight");
  job_ = job;
  job_count_ = job_count;
  // One chunk per lock acquisition: big batches claim ranges to keep mutex
  // traffic O(workers), small batches claim single indices so uneven job
  // costs (Dijkstra over different plans) still balance.
  chunk_ = std::max<std::size_t>(1, job_count / (workers_.size() * 16));
  next_index_ = 0;
  completed_ = 0;
  first_error_ = nullptr;
  first_error_index_ = 0;
  ++batch_id_;
}

void ThreadPool::wait_batch_and_rethrow() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return completed_ == job_count_; });
    job_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::run_indexed(std::size_t job_count,
                             const std::function<void(std::size_t)>& job) {
  if (job_count == 0) return;
  const std::function<void(std::size_t, std::size_t)> adapter =
      [&job](std::size_t, std::size_t index) { job(index); };
  parallel_for(job_count, adapter);
}

void ThreadPool::parallel_for(
    std::size_t job_count, const std::function<void(std::size_t, std::size_t)>& job) {
  if (job_count == 0) return;
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    start_batch_locked(job_count, &job);
  }
  work_cv_.notify_all();
  wait_batch_and_rethrow();
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen_batch = 0;
  for (;;) {
    const std::function<void(std::size_t, std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && batch_id_ != seen_batch);
      });
      if (stop_) return;
      seen_batch = batch_id_;
      job = job_;
    }
    // Claim and run index chunks until the batch is exhausted.
    for (;;) {
      std::size_t begin_index;
      std::size_t end_index;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        // The batch we joined may have completed (and a new one started)
        // since we last held the lock; claiming an index from a later batch
        // here would run it with the previous batch's dangling job pointer.
        if (batch_id_ != seen_batch || next_index_ >= job_count_) break;
        begin_index = next_index_;
        end_index = std::min(job_count_, begin_index + chunk_);
        next_index_ = end_index;
      }
      for (std::size_t index = begin_index; index < end_index; ++index) {
        std::exception_ptr error;
        try {
          (*job)(worker, index);
        } catch (...) {
          error = std::current_exception();
        }
        if (error != nullptr) {
          std::lock_guard<std::mutex> lock(mutex_);
          if (first_error_ == nullptr || index < first_error_index_) {
            first_error_ = error;
            first_error_index_ = index;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if ((completed_ += end_index - begin_index) == job_count_) {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace datastage
