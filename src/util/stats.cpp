#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace qforest {

SampleSummary summarize(const std::vector<double>& samples) {
  SampleSummary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  double sum = 0.0;
  for (double x : samples) {
    sum += x;
  }
  s.mean = sum / static_cast<double>(s.count);
  double m2 = 0.0;
  for (double x : samples) {
    m2 += (x - s.mean) * (x - s.mean);
  }
  s.stddev =
      s.count < 2 ? 0.0 : std::sqrt(m2 / static_cast<double>(s.count - 1));
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  s.min = *lo;
  s.max = *hi;
  s.median = percentile(samples, 50.0);
  return s;
}

double percentile(const std::vector<double>& samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double speedup_percent(double baseline_seconds, double candidate_seconds) {
  if (candidate_seconds <= 0.0) {
    return 0.0;
  }
  return 100.0 * (baseline_seconds - candidate_seconds) / candidate_seconds;
}

}  // namespace qforest
