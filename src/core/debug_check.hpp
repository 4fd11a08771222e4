#pragma once
/// \file debug_check.hpp
/// \brief Compiled-in runtime contract detectors (QFOREST_DEBUG_CHECKS).
///
/// The two-level parallel forest (PR 5/6) places a *contractual*
/// thread-safety requirement on user callbacks and strict geometric /
/// nesting invariants on the internal schedulers. This layer turns those
/// conventions into runtime detectors that are compiled in only when the
/// build defines QFOREST_DEBUG_CHECKS (CMake option of the same name; the
/// test suite always builds against a checks-enabled library copy, see
/// tests/CMakeLists.txt) and cost literally nothing otherwise — every
/// hook below compiles to no tokens when the macro is off.
///
/// Detectors:
///  - ConcurrencyDetector: wraps every user-callback invocation of
///    refine / coarsen / iterate_faces. It *proves* when callbacks are
///    entered concurrently (an observable statistic), and reports a
///    violation when concurrency occurs after the process declared its
///    callbacks serial-only (expect_serial) — i.e. when a non-thread-safe
///    callback actually raced instead of opting out via
///    set_tree_parallelism(false).
///  - ChunkCoverage: validates the block geometry of
///    ThreadPool::parallel_for_grain — grain-aligned begins, exact block
///    lengths, no block executed twice, and full [0, n) coverage.
///  - check_depth_transition: the scheduling-depth invariant of
///    forest.hpp's dispatch decisions (tree-level pool dispatch only
///    from depth 0, chunk-level from depth 0 or 1 — chunk workers never
///    submit nested pool tasks).
///  - check_structural: post-throw structural-consistency assertions of
///    the adaptation algorithms (forest stays is_valid() after a
///    throwing callback).
///
/// Violations are counted per Check kind and logged at error level; a
/// gtest environment in tests/helpers.hpp fails any test binary whose
/// suite ends with a nonzero count (tests that deliberately seed a
/// violation consume it with reset_violations). Set QFOREST_DEBUG_ABORT=1
/// to abort at the first violation instead (useful to get a stack trace
/// under a sanitizer or debugger).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/log.hpp"

#if defined(QFOREST_DEBUG_CHECKS) && QFOREST_DEBUG_CHECKS
#define QFOREST_DEBUG_CHECKS_ENABLED 1
#else
#define QFOREST_DEBUG_CHECKS_ENABLED 0
#endif

namespace qforest::debug {

/// Detector identity; indexes the per-kind violation counters.
enum class Check : int {
  kCallbackConcurrency = 0,  ///< serial-declared callback entered concurrently
  kChunkGeometry,            ///< malformed parallel_for_grain block
  kChunkOverlap,             ///< chunk executed more than once
  kChunkCoverage,            ///< blocks did not cover [0, n) completely
  kDepthInvariant,           ///< illegal scheduling-depth transition
  kStructural,               ///< forest structurally inconsistent
  kCount
};

inline const char* check_name(Check c) {
  switch (c) {
    case Check::kCallbackConcurrency: return "callback-concurrency";
    case Check::kChunkGeometry: return "chunk-geometry";
    case Check::kChunkOverlap: return "chunk-overlap";
    case Check::kChunkCoverage: return "chunk-coverage";
    case Check::kDepthInvariant: return "depth-invariant";
    case Check::kStructural: return "structural";
    default: return "?";
  }
}

namespace detail {
inline std::atomic<std::uint64_t>& counter(Check c) {
  static std::atomic<std::uint64_t> counters[static_cast<int>(Check::kCount)];
  return counters[static_cast<int>(c)];
}

inline bool abort_on_violation() {
  static const bool value =
      std::getenv("QFOREST_DEBUG_ABORT") != nullptr;  // NOLINT(concurrency-mt-unsafe)
  return value;
}
}  // namespace detail

/// Number of violations of one kind recorded since the last reset.
inline std::uint64_t violations(Check c) {
  // mo: relaxed — statistics read; tests assert after regions joined.
  return detail::counter(c).load(std::memory_order_relaxed);
}

/// Total violations across every kind since the last reset.
inline std::uint64_t total_violations() {
  std::uint64_t sum = 0;
  for (int i = 0; i < static_cast<int>(Check::kCount); ++i) {
    sum += violations(static_cast<Check>(i));
  }
  return sum;
}

/// Zero every per-kind counter (a test that seeds a violation consumes it
/// here so the suite-level silence assertion stays meaningful).
inline void reset_violations() {
  // mo: relaxed — statistics reset between tests; callers ensure
  // checker quiescence.
  for (int i = 0; i < static_cast<int>(Check::kCount); ++i) {
    detail::counter(static_cast<Check>(i)).store(0, std::memory_order_relaxed);
  }
}

/// One line per nonzero counter, for assertion messages.
inline std::string violation_summary() {
  std::string out;
  for (int i = 0; i < static_cast<int>(Check::kCount); ++i) {
    const auto c = static_cast<Check>(i);
    if (const std::uint64_t n = violations(c)) {
      out += std::string(check_name(c)) + ": " + std::to_string(n) + "  ";
    }
  }
  return out.empty() ? std::string("no violations") : out;
}

/// Record one violation: bump the kind's counter, log at error level, and
/// abort when QFOREST_DEBUG_ABORT is set.
inline void report_violation(Check c, const char* what) {
  // mo: relaxed — violation tally; only atomicity matters.
  detail::counter(c).fetch_add(1, std::memory_order_relaxed);
  log_error("debug-check violation [%s]: %s", check_name(c), what);
  if (detail::abort_on_violation()) {
    std::abort();
  }
}

#if QFOREST_DEBUG_CHECKS_ENABLED

/// Detects concurrent entry into user callbacks. The forest wraps every
/// refine / coarsen / iterate_faces callback invocation in a Scope; the
/// in-flight count proves when two invocations actually overlapped in
/// time. Overlap alone is the documented contract and only recorded as a
/// statistic (concurrency_observed); it becomes a reported violation when
/// the process declared its callbacks serial-only via expect_serial(true)
/// — the runtime proof that a non-contract-aware callback raced.
class ConcurrencyDetector {
 public:
  class Scope {
   public:
    explicit Scope(ConcurrencyDetector& d) : d_(&d) {
      // mo: relaxed — invocation tally; only atomicity matters.
      d_->entries_.fetch_add(1, std::memory_order_relaxed);
      // mo: acq_rel — the in-flight count is the overlap proof: the RMW
      // must order against other Scopes' increments/decrements so a
      // nonzero previous value really means a concurrently open Scope.
      if (d_->in_flight_.fetch_add(1, std::memory_order_acq_rel) > 0) {
        // mo: relaxed — overlap tally; only atomicity matters.
        d_->concurrent_.fetch_add(1, std::memory_order_relaxed);
        // mo: relaxed — contract flag set before the region starts.
        if (d_->expect_serial_.load(std::memory_order_relaxed)) {
          report_violation(Check::kCallbackConcurrency,
                           "user callback entered concurrently while "
                           "declared serial-only (expect_serial); make the "
                           "callback thread-safe or call "
                           "set_tree_parallelism(false)");
        }
      }
    }
    // mo: acq_rel — pairs with the ctor's RMW; see above.
    ~Scope() { d_->in_flight_.fetch_sub(1, std::memory_order_acq_rel); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ConcurrencyDetector* d_;
  };

  /// Declare that the callbacks about to run are NOT thread-safe: any
  /// concurrent entry observed while this is set is a contract violation.
  void expect_serial(bool on) {
    // mo: relaxed — contract flag toggled outside parallel regions.
    expect_serial_.store(on, std::memory_order_relaxed);
  }

  /// True when any two callback invocations have overlapped in time
  /// since the last reset().
  [[nodiscard]] bool concurrency_observed() const {
    // mo: relaxed — statistics read after the region joined.
    return concurrent_.load(std::memory_order_relaxed) > 0;
  }

  /// Total callback invocations since the last reset().
  [[nodiscard]] std::uint64_t entries() const {
    // mo: relaxed — statistics read after the region joined.
    return entries_.load(std::memory_order_relaxed);
  }

  void reset() {
    // mo: relaxed — statistics reset; callers ensure quiescence.
    entries_.store(0, std::memory_order_relaxed);
    concurrent_.store(0, std::memory_order_relaxed);
    expect_serial_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<int> in_flight_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> concurrent_{0};
  std::atomic<bool> expect_serial_{false};
};

/// Process-global detector shared by every Forest instantiation; the
/// callback contract is process-wide (one shared pool), so one detector
/// suffices.
inline ConcurrencyDetector& callback_detector() {
  static ConcurrencyDetector detector;  // qf-allow(mutable-static): all members are std::atomic
  return detector;
}

/// Wrap a user callback so every invocation opens a detector Scope.
/// Captures \p fn by reference: the wrapper never outlives the forest
/// call that created it.
template <class Fn>
auto wrap_callback(Fn& fn) {
  return [&fn](auto&&... args) -> decltype(auto) {
    const ConcurrencyDetector::Scope scope(callback_detector());
    return fn(std::forward<decltype(args)>(args)...);
  };
}

/// Validates the block geometry of one parallel_for_grain call: each
/// block must start at a grain multiple, span exactly the grain (the
/// final block may stop short at n), be executed exactly once, and the
/// blocks together must cover [0, n) completely. claim() is called
/// concurrently from the worker blocks; finish() once after the call's
/// latch closed.
class ChunkCoverage {
 public:
  ChunkCoverage(std::size_t n, std::size_t grain)
      : n_(n),
        grain_(grain == 0 ? 1 : grain),
        claimed_(n_ / grain_ + (n_ % grain_ != 0)) {}

  void claim(std::size_t begin, std::size_t end) {
    const bool aligned = begin % grain_ == 0;
    const bool ordered = begin < end && end <= n_;
    const bool exact =
        ordered && (end - begin == grain_ || (end == n_ && end - begin < grain_));
    if (!aligned || !ordered || !exact) {
      report_violation(Check::kChunkGeometry,
                       "parallel_for_grain block is not grain-aligned or "
                       "has the wrong length");
      return;
    }
    const std::size_t chunk = begin / grain_;
    // mo: acq_rel — the exchange is the exactly-once claim: it must
    // order against a racing claim of the same chunk so exactly one
    // caller sees 0.
    if (claimed_[chunk].exchange(1, std::memory_order_acq_rel) != 0) {
      report_violation(Check::kChunkOverlap,
                       "parallel_for_grain chunk executed more than once "
                       "(overlapping block writes)");
      return;
    }
    // mo: relaxed — coverage tally; finish() runs after the latch.
    covered_.fetch_add(end - begin, std::memory_order_relaxed);
  }

  void finish() const {
    // mo: relaxed — the call's latch closed before finish(); the latch
    // orders the claims.
    if (covered_.load(std::memory_order_relaxed) != n_) {
      report_violation(Check::kChunkCoverage,
                       "parallel_for_grain blocks did not cover [0, n) "
                       "exactly once");
    }
  }

 private:
  std::size_t n_;
  std::size_t grain_;
  std::vector<std::atomic<std::uint8_t>> claimed_;
  std::atomic<std::size_t> covered_{0};
};

/// Scheduling-depth invariant, asserted at the DISPATCH decisions of
/// forest.hpp's parallel_over / parallel_chunks (\p from is the
/// submitting thread's depth, \p to the level being dispatched): tree-
/// level pool dispatch (to == 1) only from application code (depth 0);
/// chunk-level pool dispatch (to == 2) from application code or a tree
/// task, never from a chunk worker — reentrant loops at depth >= 2 must
/// run inline. The *executing* thread's depth is deliberately not
/// checked: under the pool's helping wait, a thread waiting at depth 1
/// or 2 legitimately executes queued tasks of any level.
inline void check_depth_transition(int from, int to) {
  const bool legal = (to == 1 && from == 0) || (to == 2 && from <= 1);
  if (!legal) {
    report_violation(Check::kDepthInvariant,
                     "illegal scheduling dispatch: tree-level dispatch "
                     "only from application code, and chunk workers must "
                     "never submit nested pool tasks");
  }
}

/// Structural-consistency assertion (used by the adaptation algorithms
/// after a throwing callback: the forest must still be is_valid()).
inline void check_structural(bool ok, const char* what) {
  if (!ok) {
    report_violation(Check::kStructural, what);
  }
}

#endif  // QFOREST_DEBUG_CHECKS_ENABLED

}  // namespace qforest::debug

// ---- zero-cost call-site hooks ---------------------------------------------

#if QFOREST_DEBUG_CHECKS_ENABLED
/// Bind \p name to \p fn wrapped with the callback-concurrency detector.
#define QFOREST_DBG_WRAP_CALLBACK(name, fn) \
  auto name = ::qforest::debug::wrap_callback(fn)
/// Validate one scheduling dispatch (submitter depth -> task level).
#define QFOREST_DBG_DEPTH_TRANSITION(from, to) \
  ::qforest::debug::check_depth_transition((from), (to))
/// Assert a structural invariant (evaluates \p cond only when enabled).
#define QFOREST_DBG_STRUCTURAL(cond, what) \
  ::qforest::debug::check_structural((cond), (what))
#else
#define QFOREST_DBG_WRAP_CALLBACK(name, fn) auto& name = fn
#define QFOREST_DBG_DEPTH_TRANSITION(from, to) ((void)0)
#define QFOREST_DBG_STRUCTURAL(cond, what) ((void)0)
#endif
