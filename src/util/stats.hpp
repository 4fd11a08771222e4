#pragma once
/// \file stats.hpp
/// \brief Batch statistics and the paper's speedup convention for
/// benchmark measurements.

#include <cstddef>
#include <vector>

namespace qforest {

/// Batch summary of a sample vector.
struct SampleSummary {
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

/// Compute a SampleSummary; the input is copied, not reordered.
SampleSummary summarize(const std::vector<double>& samples);

/// Percentile in [0,100] by linear interpolation; input copied.
double percentile(const std::vector<double>& samples, double p);

/// Relative speedup of \p candidate over \p baseline in percent, i.e.
/// 100 * (baseline - candidate) / candidate, matching the paper's
/// "X% average performance boost" phrasing (how much more work per second
/// the candidate does than the baseline).
double speedup_percent(double baseline_seconds, double candidate_seconds);

}  // namespace qforest
