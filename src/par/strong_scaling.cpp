#include "par/strong_scaling.hpp"

namespace qforest::par {

std::vector<int> shard_rank_counts(int max_ranks) {
  std::vector<int> counts;
  for (int t = 8; t <= max_ranks; t *= 2) {
    counts.push_back(t);
  }
  return counts;
}

double scaling_efficiency(double serial_seconds, double wall_seconds,
                          int ranks, unsigned hw_cores) {
  if (wall_seconds <= 0.0 || ranks < 1) {
    return 0.0;
  }
  const int cores = static_cast<int>(hw_cores > 0 ? hw_cores : 1);
  const int ideal = ranks < cores ? ranks : cores;
  return serial_seconds / (wall_seconds * ideal);
}

}  // namespace qforest::par
