#pragma once
/// \file timer.hpp
/// \brief Wall-clock timer for benchmark timings.

#include <chrono>
#include <cstdint>

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

}  // namespace qforest
