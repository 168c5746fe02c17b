// Fixed-size thread pool shared by the compute hot paths: the blocked
// matmul kernel parallelizes row blocks across it and the federated
// trainer runs per-client local training on it. Clients and row blocks
// are independent, so the pool needs no work stealing: a parallel_for
// publishes one job record and every thread that joins it claims the
// next unclaimed index.
//
// size() counts the threads that compute, the caller included: the
// pool starts max(1, size() - 1) workers, and parallel_for's caller
// claims indices alongside them. So one job never runs more than
// size() indices at once.
//
// Nesting contract: parallel_for called from a thread that is inside
// this pool runs its iterations inline on that thread instead of
// publishing. Inside means a worker, or a caller while it runs indices
// of its own job. This makes nested parallelism (a parallel client
// whose matmuls would also parallelize) deadlock-free, and it keeps
// results independent of nesting depth because every iteration still
// executes exactly once in index order within its executor.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fedcl {

class ThreadPool {
 public:
  // n_threads == 0 selects std::thread::hardware_concurrency() (>= 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The threads that compute a parallel_for: the workers plus the
  // caller. A pool of one runs every loop inline and keeps one worker
  // for submit().
  std::size_t size() const { return size_; }

  // True when the calling thread is one of this pool's workers, or a
  // caller running an index of its own parallel_for.
  bool on_worker_thread() const;

  // Enqueues a task for a worker (there is always at least one) and
  // returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  // Runs fn(i) for i in [0, n) on the caller and the workers, and
  // returns once all of them have finished, including when some throw.
  // If one or more indices throw, the first exception caught is
  // rethrown after every index has completed, so captured references
  // stay valid for the full run and no exception is silently dropped.
  // Several threads may call it on one pool at once; each caller
  // always makes progress on its own job. Called from inside this pool,
  // the loop runs inline (see header comment).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Splits [0, n) into contiguous chunks of at least `grain` indices
  // and runs fn(begin, end) per chunk via parallel_for. Chunking is a
  // pure function of (n, grain, size()), never of scheduling, so any
  // work partitioned this way is reproducible across runs.
  void parallel_for_chunks(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

  // The least work, in floats moved or multiply-adds, that a
  // parallel_for_work loop fans out for. Below it the loop takes a few
  // microseconds, less than waking the workers costs.
  static constexpr std::int64_t kMinParallelWork = std::int64_t{1} << 18;

  // A loop over n independent items of `work_per_index` each:
  // parallel_for_chunks(n, 1, fn) when the whole loop reaches
  // kMinParallelWork, else fn(0, n) on the caller. Each index runs
  // once on one thread either way, so the branch taken changes no
  // result.
  void parallel_for_work(
      std::size_t n, std::int64_t work_per_index,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Job;

  void worker_loop();

  std::size_t size_ = 1;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // a job, a task or stop for workers
  std::condition_variable done_cv_;  // a job's last index or worker left
  std::deque<Job*> jobs_;            // live records, on their callers' stacks
  std::queue<std::packaged_task<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: started after the rest
};

// Process-wide pool for compute parallelism (matmul tiles, parallel
// clients). Sized by FEDCL_THREADS (0 or unset: hardware concurrency),
// which counts the threads that compute, the caller included.
// Created on first use; safe to call from any thread.
ThreadPool& compute_pool();

}  // namespace fedcl
