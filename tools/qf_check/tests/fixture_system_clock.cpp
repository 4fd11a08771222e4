// qf_check fixture: system-clock — the wall clock jumps (NTP, DST), so an
// interval measured with it can go negative; durations, trace timestamps
// and timeouts use std::chrono::steady_clock.

#include <chrono>

namespace fixture {

inline double elapsed_s(std::chrono::system_clock::time_point t0) {  // FINDING: system-clock
  const std::chrono::duration<double> d =
      std::chrono::system_clock::now() - t0;  // FINDING: system-clock
  return d.count();
}

inline auto calendar_stamp() {
  return std::chrono::system_clock::now();  // qf-allow(system-clock): fixture exemption
}

inline auto interval_start() {
  return std::chrono::steady_clock::now();  // OK: monotonic
}

}  // namespace fixture
