#include "util/timer.hpp"

#include <ctime>
#include <utility>

#include "util/log.hpp"

namespace qforest {

double process_cpu_time_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1.0e-9 * static_cast<double>(ts.tv_nsec);
}

ScopedTimer::ScopedTimer(std::string label) : label_(std::move(label)) {}

ScopedTimer::~ScopedTimer() {
  log_debug("%s: %.6f s", label_.c_str(), timer_.elapsed_s());
}

}  // namespace qforest
