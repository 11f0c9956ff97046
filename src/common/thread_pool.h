// Fixed-size thread pool plus a ParallelFor helper.
//
// One level of parallelism: only the coarse, top-level loops fan out over
// the pool — the ensemble's member, batch and (member x batch) loops, and
// the O(n^2) row loops of the OCSVM and LOF baselines. Everything below
// them, every kernel included, runs on its caller's thread. A loop started
// inside a pool worker runs inline, so a nested fan-out never blocks a
// worker on its own pool.

#ifndef CAEE_COMMON_THREAD_POOL_H_
#define CAEE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace caee {

class ThreadPool {
 public:
  /// \brief Creates `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  /// \brief Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueue a task; returns immediately.
  void Submit(std::function<void()> task);

  /// \brief Process-wide pool (lazily created, hardware_concurrency sized).
  static ThreadPool& Global();

  /// \brief True when the calling thread is a pool worker. Parallel helpers
  /// use this to run nested loops inline: a worker that blocked on its own
  /// pool would deadlock once every worker did the same.
  static bool InWorker();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  bool stop_ = false;
};

/// \brief Has no effect. Kernels no longer fan out, so there is nothing
/// left for a per-thread bound to narrow; the class remains only because
/// benchmark/src/trace.cc still constructs one, and goes with the next
/// change to the benchmark.
class ParallelismCap {
 public:
  explicit ParallelismCap(size_t /*max_threads*/) {}

  ParallelismCap(const ParallelismCap&) = delete;
  ParallelismCap& operator=(const ParallelismCap&) = delete;
};

namespace internal {

/// \brief True when a parallel helper should fan out to the pool for `n`
/// items at the given serial threshold; false selects the inline serial
/// path (single effective thread, small n, or already inside a pool
/// worker — the nested-dispatch deadlock guard).
bool ShouldDispatch(size_t n, size_t serial_threshold, size_t max_threads);

/// \brief Pool fan-out behind ParallelFor. Only reached when ShouldDispatch
/// returned true; type-erases the callable at the latest possible point so
/// the serial fast path never touches std::function (and therefore never
/// heap-allocates). Returns once this call's own chunks are done, whatever
/// else the pool is running.
void ParallelForRangeDispatch(size_t n,
                              const std::function<void(size_t, size_t)>& fn,
                              size_t min_chunk, size_t max_threads);

}  // namespace internal

/// \brief Run fn(i) for i in [0, n), split into contiguous grains across the
/// global pool. Falls back to serial execution for small n. `max_threads`
/// additionally bounds the fan-out (0 = no extra bound beyond the global
/// level). The serial path invokes the callable directly — no std::function
/// construction, no allocation — which is what keeps a sequential
/// (num_threads == 1) ensemble allocation-free.
template <typename F>
void ParallelFor(size_t n, const F& fn, size_t grain = 64,
                 size_t max_threads = 0) {
  if (n == 0) return;
  if (!internal::ShouldDispatch(n, grain, max_threads)) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  internal::ParallelForRangeDispatch(
      n,
      [&fn](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fn(i);
      },
      grain, max_threads);
}

/// \brief Override the parallelism used by ParallelFor (0 = hardware).
void SetGlobalParallelism(size_t threads);
size_t GetGlobalParallelism();

}  // namespace caee

#endif  // CAEE_COMMON_THREAD_POOL_H_
