#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace caee {

namespace {
std::atomic<size_t> g_parallelism{0};  // 0 = hardware default
thread_local bool t_in_pool_worker = false;

// Global level narrowed by an optional per-call bound.
size_t EffectiveParallelism(size_t max_threads) {
  size_t n = GetGlobalParallelism();
  if (max_threads != 0 && max_threads < n) n = max_threads;
  return n;
}
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

bool ThreadPool::InWorker() { return t_in_pool_worker; }

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    size_t n = g_parallelism.load(std::memory_order_relaxed);
    if (n == 0) {
      n = std::max<size_t>(1, std::thread::hardware_concurrency());
    }
    return new ThreadPool(n);
  }();
  return *pool;
}

void SetGlobalParallelism(size_t threads) {
  g_parallelism.store(threads, std::memory_order_relaxed);
}

size_t GetGlobalParallelism() {
  size_t n = g_parallelism.load(std::memory_order_relaxed);
  if (n == 0) {
    // hardware_concurrency() is a sysconf read (~microseconds) and this
    // runs on every ParallelFor dispatch check — cache it once. The value
    // cannot change for the life of the process.
    static const size_t hw =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    n = hw;
  }
  return n;
}

namespace internal {

bool ShouldDispatch(size_t n, size_t serial_threshold, size_t max_threads) {
  const size_t threads = EffectiveParallelism(max_threads);
  return threads > 1 && n > serial_threshold && !ThreadPool::InWorker();
}

void ParallelForRangeDispatch(size_t n,
                              const std::function<void(size_t, size_t)>& fn,
                              size_t min_chunk, size_t max_threads) {
  const size_t threads = EffectiveParallelism(max_threads);
  const size_t chunks = std::min(threads, (n + min_chunk - 1) / min_chunk);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  // Other threads may be fanning out over the same pool at the same time
  // (one serving shard per caller), so this call counts down its own
  // chunks instead of waiting for the whole pool to go idle. The last
  // chunk notifies under the lock: the waiter cannot return, and destroy
  // these locals, before that chunk has released them.
  std::mutex mu;
  std::condition_variable done;
  size_t pending = (n + chunk_size - 1) / chunk_size;
  ThreadPool& pool = ThreadPool::Global();
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    const size_t end = std::min(n, begin + chunk_size);
    pool.Submit([begin, end, &fn, &mu, &done, &pending] {
      fn(begin, end);
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&pending] { return pending == 0; });
}

}  // namespace internal

}  // namespace caee
