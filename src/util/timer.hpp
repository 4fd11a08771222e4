#pragma once
/// \file timer.hpp
/// \brief Wall-clock and CPU timers for benchmark timings.

#include <chrono>
#include <cstdint>
#include <string>

namespace qforest {

/// High-resolution wall-clock stopwatch.
///
/// Typical use in the benches:
/// \code
///   WallTimer t;
///   kernel_loop(...);
///   double seconds = t.elapsed_s();
/// \endcode
class WallTimer {
 public:
  WallTimer() { reset(); }

  /// Restart the stopwatch at the current instant.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Nanoseconds elapsed since construction or the last reset().
  [[nodiscard]] std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                start_)
        .count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Process CPU time in seconds (CLOCK_PROCESS_CPUTIME_ID).
double process_cpu_time_s();

/// RAII timer that logs its scope's duration at debug level on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string label);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string label_;
  WallTimer timer_;
};

}  // namespace qforest
