// Fixed-size worker pool for fanning out independent jobs.
//
// Deliberately minimal — no futures, no task queue, no work stealing. One
// batch of `job_count` indexed jobs runs at a time: workers claim index
// chunks from a shared counter, so scheduling is dynamic but *results* are
// attached to indices, never to threads. Callers that store `result[i] =
// f(i)` and reduce in index order therefore get bit-identical output for any
// thread count (see harness/parallel.hpp for that contract).
//
// Two blocking entry points share the batch machinery:
//   * run_indexed()   — `job(index)`;
//   * parallel_for()  — `job(worker, index)` with chunked index claiming;
//     the worker id (0..thread_count-1) lets callers keep per-worker
//     scratch (Dijkstra workspaces) without thread-locals.
//
// Exceptions thrown by jobs are captured and the one with the lowest job
// index is rethrown from the blocking call after the batch drains — again
// independent of thread scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace datastage {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);
  /// Joins all workers. Must not be called while a batch is in flight
  /// (asserted).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Runs job(0) .. job(job_count-1) across the workers and blocks until all
  /// complete. If any job throws, the exception with the smallest job index
  /// is rethrown here once the batch has drained (remaining jobs still run).
  /// Not reentrant: one batch at a time per pool (enforced with a mutex).
  void run_indexed(std::size_t job_count, const std::function<void(std::size_t)>& job);

  /// Blocking parallel for over [0, job_count): runs job(worker, index) with
  /// `worker` in [0, thread_count()). Workers claim contiguous index chunks
  /// (size auto-derived from job_count and the worker count) from a shared
  /// counter, so dispatch cost is O(chunks), not O(jobs), while load still
  /// balances dynamically. job_count == 0 is a no-op. Exceptions: lowest
  /// job index wins, rethrown after the batch drains.
  void parallel_for(std::size_t job_count,
                    const std::function<void(std::size_t, std::size_t)>& job);

  /// std::thread::hardware_concurrency with a floor of 1 (the function may
  /// return 0 on platforms that cannot report it).
  static std::size_t hardware_jobs();

 private:
  void start_batch_locked(std::size_t job_count,
                          const std::function<void(std::size_t, std::size_t)>* job);
  void wait_batch_and_rethrow();
  void worker_loop(std::size_t worker);

  std::vector<std::thread> workers_;

  std::mutex batch_mutex_;  ///< serializes run_indexed/parallel_for callers

  std::mutex mutex_;  ///< guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::size_t chunk_ = 1;      ///< indices claimed per lock acquisition
  std::size_t next_index_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t batch_id_ = 0;  ///< bumped per batch so workers wake exactly once
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::size_t first_error_index_ = 0;
};

}  // namespace datastage
