#include "par/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <latch>
#include <memory>

#include "core/debug_check.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace qforest::par {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const LockGuard lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  UniqueLock lock(mutex_);
  while (in_flight_ != 0) {
    cv_idle_.wait(lock);
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const std::size_t chunks = std::min<std::size_t>(size(), n);
  parallel_for_grain(n, (n + chunks - 1) / chunks, fn);
}

void ThreadPool::parallel_for_grain(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  grain = std::max<std::size_t>(grain, 1);
  // Not (n + grain - 1) / grain, which wraps for a huge grain.
  const std::size_t tasks = n / grain + (n % grain != 0);
  if (tasks == 1) {
    fn(0, n);
    return;
  }
  // Per-call completion latch: waiting for global pool quiescence
  // (wait_idle) would couple concurrent parallel_for callers — one
  // caller's fast loop would block for another's slow one. The error slot
  // lives next to it so a throwing block is reported to the caller that
  // *owns* the region, not to whichever thread happened to execute it
  // (the helping wait runs blocks of other callers).
  struct CallState {
    std::latch latch;
    Mutex mutex;
    std::exception_ptr error QF_GUARDED_BY(mutex);
    std::size_t error_begin QF_GUARDED_BY(mutex) = 0;
    std::size_t dropped QF_GUARDED_BY(mutex) = 0;
#if QFOREST_DEBUG_CHECKS_ENABLED
    debug::ChunkCoverage coverage;
    CallState(std::ptrdiff_t t, std::size_t n, std::size_t grain)
        : latch(t), coverage(n, grain) {}
#else
    CallState(std::ptrdiff_t t, std::size_t, std::size_t) : latch(t) {}
#endif
  };
  const auto state = std::make_shared<CallState>(
      static_cast<std::ptrdiff_t>(tasks), n, grain);
  for (std::size_t c = 0; c < tasks; ++c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, begin + grain);
    submit([fn, begin, end, state] {
      // Count down even when fn throws: an abandoned latch would hang
      // this call's waiter forever.
      struct CountDown {
        std::latch* l;
        ~CountDown() { l->count_down(); }
      } guard{&state->latch};
#if QFOREST_DEBUG_CHECKS_ENABLED
      state->coverage.claim(begin, end);
#endif
      try {
        fn(begin, end);
      } catch (...) {
        // Deterministic winner: the lowest-index block's exception is the
        // one rethrown to the owning waiter; the others are counted and
        // dropped.
        const LockGuard lock(state->mutex);
        if (state->error) {
          ++state->dropped;
        }
        if (!state->error || begin < state->error_begin) {
          state->error = std::current_exception();
          state->error_begin = begin;
        }
      }
    });
  }
  // Helping wait: executing queued tasks (ours or another caller's) keeps
  // the pool deadlock-free under nesting — every open latch has its
  // remaining blocks either queued (some helper will pop them) or already
  // executing, and the spawn graph is acyclic, so progress is guaranteed.
  // parallel_for_grain blocks never throw out of try_run_one (they store
  // into their own CallState above); an escaping exception can only come
  // from a task enqueued via raw submit(). It must not unwind past our
  // own latch (our blocks may still be running and reference fn's
  // captures), so the first one is held back and rethrown once every
  // block finished.
  std::exception_ptr helped_error;
  while (!state->latch.try_wait()) {
    bool ran = false;
    try {
      ran = try_run_one();
    } catch (...) {
      if (!helped_error) {
        helped_error = std::current_exception();
      }
      continue;
    }
    if (!ran) {
      state->latch.wait();
      break;
    }
  }
#if QFOREST_DEBUG_CHECKS_ENABLED
  // All blocks have finished (latch closed): the geometry must add up.
  state->coverage.finish();
#endif
  // All blocks counted the latch down, so no writer remains — but the
  // error slot is guarded, and an uncontended lock here is cheaper than
  // an analysis exemption. Logged outside the lock: log_error takes the
  // log mutex, which must not nest under this one.
  std::exception_ptr block_error;
  std::size_t dropped_errors = 0;
  {
    const LockGuard lock(state->mutex);
    block_error = state->error;
    dropped_errors = state->dropped;
  }
  if (dropped_errors > 0) {
    log_error(
        "parallel_for_grain: %zu additional block exception(s) dropped; "
        "rethrowing the lowest-index block's",
        dropped_errors);
  }
  if (block_error) {
    std::rethrow_exception(block_error);
  }
  if (helped_error) {
    std::rethrow_exception(helped_error);
  }
}

bool ThreadPool::pop_task_locked(std::function<void()>& out) {
  if (queue_.empty()) {
    return false;
  }
  out = std::move(queue_.front());
  queue_.pop();
  return true;
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    const LockGuard lock(mutex_);
    if (!pop_task_locked(task)) {
      return false;
    }
  }
  static obs::Counter& c_helped = obs::counter("par.pool.helped_tasks");
  c_helped.add(1);
  run_accounted(task);
  return true;
}

void ThreadPool::run_accounted(std::function<void()>& task) {
  // Keep the in-flight accounting exception-safe: a throwing task must
  // not wedge wait_idle (and the helping wait) forever. On a worker
  // thread an uncaught throw still terminates (no one to rethrow to),
  // but never with the in-flight count wedged.
  struct Account {
    ThreadPool* pool;
    ~Account() {
      const LockGuard lock(pool->mutex_);
      --pool->in_flight_;
      if (pool->in_flight_ == 0) {
        pool->cv_idle_.notify_all();
      }
    }
  } guard{this};
  static obs::Counter& c_tasks = obs::counter("par.pool.tasks");
  c_tasks.add(1);
  task();
}

void ThreadPool::worker_loop() {
  // Looked up before any lock acquisition: registering a metric takes
  // the obs registry lock, and the first worker to block used to take it
  // under mutex_ (a pool -> registry nesting qf_check's lock-order graph
  // would carry forever for one cold-path static init).
  static obs::Counter& c_idle = obs::counter("par.pool.idle_wait_ns");
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      if (obs::metrics_enabled() && queue_.empty() && !stop_) {
        const auto wait_start = std::chrono::steady_clock::now();
        while (!stop_ && queue_.empty()) {
          cv_task_.wait(lock);
        }
        c_idle.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wait_start)
                .count()));
      } else {
        while (!stop_ && queue_.empty()) {
          cv_task_.wait(lock);
        }
      }
      if (queue_.empty()) {
        if (stop_) {
          return;
        }
        continue;
      }
      (void)pop_task_locked(task);
    }
    run_accounted(task);
  }
}

}  // namespace qforest::par
