// A small persistent thread pool for parallel worker execution.
//
// The BSP engine runs simulated workers on host threads. Simulated time
// comes from the cost clock, never from wall time, so results are
// bit-identical for any thread count (including 0 = inline, which runs
// indices in ascending order).
//
// Index claiming is chunked: each participant grabs a grain-sized range
// of indices with one atomic fetch_add instead of taking a mutex per
// index, so wide fan-outs (e.g. 29 simulated workers) do not serialize
// on a lock. The mutex is only used to publish a batch and to park idle
// threads between batches.

#ifndef PREDICT_BSP_THREAD_POOL_H_
#define PREDICT_BSP_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace predict::bsp {

/// Fixed-size pool executing ParallelFor batches.
class ThreadPool {
 public:
  /// `num_threads` of 0 means "run everything inline on the caller".
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invokes fn(i) for every i in [0, count), distributing chunks of
  /// indices across the pool; blocks until all invocations complete. fn
  /// must be safe to call concurrently for distinct i. With no threads,
  /// fn runs on the caller for i = 0, 1, ..., count - 1 in that order.
  /// That order is part of the engine's determinism contract: an inline
  /// run computes its workers in ascending order, so its messages are
  /// sent in delivery order and a combining program folds each as it is
  /// sent (bsp/engine.h).
  void ParallelFor(uint64_t count, const std::function<void(uint64_t)>& fn);

  uint32_t num_threads() const { return static_cast<uint32_t>(threads_.size()); }

 private:
  void WorkerLoop();

  /// Claims and executes grain-sized index chunks until the batch's
  /// index space is exhausted; called by pool threads and the caller.
  void RunChunks(const std::function<void(uint64_t)>& fn);

  std::vector<std::thread> threads_;

  // Batch publication (guarded by mutex_). A batch cannot be recycled
  // until every woken worker has left RunChunks (active_workers_ == 0),
  // which keeps the lock-free claims below safe.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const std::function<void(uint64_t)>* current_fn_ = nullptr;
  uint64_t total_count_ = 0;
  uint64_t grain_ = 1;
  uint64_t generation_ = 0;
  uint32_t active_workers_ = 0;
  bool shutting_down_ = false;

  // Lock-free within a batch.
  std::atomic<uint64_t> next_index_{0};
  std::atomic<uint64_t> completed_{0};
};

}  // namespace predict::bsp

#endif  // PREDICT_BSP_THREAD_POOL_H_
