#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/env.h"
#include "common/error.h"

namespace fedcl {

namespace {

// The pool the calling thread is inside: set for a worker's lifetime
// and for a caller while it runs indices of its own job, so
// parallel_for can detect nested calls and run them inline instead of
// publishing.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

// One parallel_for call, on its caller's stack. fn and n are fixed
// before the record is published and indices are claimed through
// `next` without a lock; done, joined and first are guarded by the
// pool's mutex_. The caller returns only once finished(): a worker
// that took the pointer must be gone before the frame is.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>& f, std::size_t count)
      : fn(f), n(count) {}

  const std::function<void(std::size_t)>& fn;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;    // indices run, booked by each thread as it leaves
  std::size_t joined = 0;  // workers holding a pointer to this record
  std::exception_ptr first;

  bool exhausted() const { return next.load(std::memory_order_relaxed) >= n; }
  bool finished() const { return done == n && joined == 0; }

  // Claims and runs indices until none is left unclaimed. Returns how
  // many this thread ran; the first exception among them lands in err.
  std::size_t run(std::exception_ptr& err) {
    std::size_t ran = 0;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
      ++ran;
    }
    return ran;
  }

  void book(std::size_t ran, std::exception_ptr err) {
    done += ran;
    if (err && !first) first = std::move(err);
  }
};

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  size_ = n_threads;
  const std::size_t n_workers = std::max<std::size_t>(1, n_threads - 1);
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return t_current_pool == this; }

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FEDCL_CHECK(!stop_) << "submit on stopped pool";
    tasks_.push(std::move(packaged));
  }
  work_cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || size() == 1 || on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Job job(fn, n);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(&job);
  }
  // The caller takes one index itself; wake a worker for each other.
  const std::size_t wake = std::min(n - 1, workers_.size());
  for (std::size_t w = 0; w < wake; ++w) work_cv_.notify_one();

  const ThreadPool* outer = std::exchange(t_current_pool, this);
  std::exception_ptr err;
  const std::size_t ran = job.run(err);
  t_current_pool = outer;

  std::unique_lock<std::mutex> lock(mutex_);
  job.book(ran, std::move(err));
  // Off the deque, the record can gain no worker; wait for those that
  // joined it to leave.
  const auto it = std::find(jobs_.begin(), jobs_.end(), &job);
  if (it != jobs_.end()) jobs_.erase(it);
  done_cv_.wait(lock, [&] { return job.finished(); });
  lock.unlock();
  if (job.first) std::rethrow_exception(job.first);
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t max_chunks = std::max<std::size_t>(1, size());
  const std::size_t chunk =
      std::max(grain, (n + max_chunks - 1) / max_chunks);
  const std::size_t chunks = (n + chunk - 1) / chunk;
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    fn(begin, std::min(n, begin + chunk));
  });
}

void ThreadPool::parallel_for_work(
    std::size_t n, std::int64_t work_per_index,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (static_cast<std::int64_t>(n) * work_per_index < kMinParallelWork) {
    fn(0, n);
    return;
  }
  parallel_for_chunks(n, /*grain=*/1, fn);
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stop_ || !jobs_.empty() || !tasks_.empty();
    });
    // A record whose indices are all claimed leaves the deque here or
    // in its caller; the caller waits on done_cv_, not on the deque.
    while (!jobs_.empty() && jobs_.front()->exhausted()) jobs_.pop_front();
    if (!jobs_.empty()) {
      Job& job = *jobs_.front();
      ++job.joined;
      lock.unlock();
      std::exception_ptr err;
      const std::size_t ran = job.run(err);
      lock.lock();
      job.book(ran, std::move(err));
      --job.joined;
      if (job.finished()) done_cv_.notify_all();
    } else if (!tasks_.empty()) {
      std::packaged_task<void()> task = std::move(tasks_.front());
      tasks_.pop();
      lock.unlock();
      task();
      lock.lock();
    } else if (stop_) {
      return;
    }
  }
}

ThreadPool& compute_pool() {
  static ThreadPool pool(
      static_cast<std::size_t>(std::max<std::int64_t>(
          0, env_int("FEDCL_THREADS", 0))));
  return pool;
}

}  // namespace fedcl
