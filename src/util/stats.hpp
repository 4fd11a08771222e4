#pragma once
/// \file stats.hpp
/// \brief The paper's speedup convention for benchmark measurements.

namespace qforest {

/// Relative speedup of \p candidate over \p baseline in percent, i.e.
/// 100 * (baseline - candidate) / candidate, matching the paper's
/// "X% average performance boost" phrasing (how much more work per second
/// the candidate does than the baseline).
double speedup_percent(double baseline_seconds, double candidate_seconds);

}  // namespace qforest
