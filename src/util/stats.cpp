#include "util/stats.hpp"

namespace qforest {

double speedup_percent(double baseline_seconds, double candidate_seconds) {
  if (candidate_seconds <= 0.0) {
    return 0.0;
  }
  return 100.0 * (baseline_seconds - candidate_seconds) / candidate_seconds;
}

}  // namespace qforest
