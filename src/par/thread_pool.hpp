#pragma once
/// \file thread_pool.hpp
/// \brief Small fixed-size worker pool for data-parallel loops.
///
/// The forest runs its tree x chunk loops on one process-wide instance
/// (detail::forest_pool() in forest/forest.hpp).

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace qforest::par {

/// Fixed-size thread pool with a blocking wait for quiescence.
class ThreadPool {
 public:
  /// Create \p threads workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Run fn(i) for i in [0, n) split into roughly size() blocks and wait
  /// for *these* blocks only (per-call latch, not pool quiescence), so
  /// concurrent parallel_for callers never block on each other's work.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Chunked submit: run fn(begin, end) over [0, n) in blocks of exactly
  /// \p grain elements (the last block may be shorter) and wait for these
  /// blocks only. The waiting thread *helps*: while its latch is open it
  /// executes queued tasks instead of blocking, so nested parallel_for /
  /// parallel_for_grain calls from inside a pool task are safe — a fixed
  /// pool whose workers all wait on inner latches would otherwise
  /// deadlock with the inner blocks still queued. When fn throws, the
  /// lowest-index block's exception is rethrown on the calling thread
  /// once every block finished — to *this* call's caller even when the
  /// block actually ran on another caller's helping thread; further
  /// exceptions of the same call are dropped, and their count is logged
  /// with log_error.
  void parallel_for_grain(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  /// Pop and execute one queued task on the calling thread; false when the
  /// queue is empty.
  bool try_run_one();

  /// Execute \p task with exception-safe in-flight accounting (shared by
  /// worker_loop and try_run_one).
  void run_accounted(std::function<void()>& task);

  /// Move the next queued task into \p out; false when the queue is
  /// empty. Callers own the dequeue ordering, hence the held lock.
  bool pop_task_locked(std::function<void()>& out) QF_REQUIRES(mutex_);

  std::vector<std::thread> workers_;
  /// Guards the task queue and the lifecycle/quiescence state below;
  /// lowest tier of the documented lock hierarchy (pool < mailbox <
  /// registry) — the obs registry lock may be taken while this is held,
  /// never the reverse.
  Mutex mutex_;
  std::queue<std::function<void()>> queue_ QF_GUARDED_BY(mutex_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t in_flight_ QF_GUARDED_BY(mutex_) = 0;
  bool stop_ QF_GUARDED_BY(mutex_) = false;
};

}  // namespace qforest::par
