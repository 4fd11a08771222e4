#pragma once
/// \file strong_scaling.hpp
/// \brief Rank counts and parallel efficiency of the sharded-exchange
/// strong-scaling bench (bench/bench_strong_scaling.cpp).

#include <vector>

namespace qforest::par {

/// The simulated rank counts of the sharded-exchange strong-scaling
/// bench: powers of two from 8 to \p max_ranks.
std::vector<int> shard_rank_counts(int max_ranks = 64);

/// Parallel efficiency of a \p ranks-shard wall time against the serial
/// reference on a host with \p hw_cores: speedup / ideal speedup, where
/// the ideal is min(ranks, hw_cores) — more shards than cores cannot beat
/// the core count, and fewer shards than cores cannot use them all.
double scaling_efficiency(double serial_seconds, double wall_seconds,
                          int ranks, unsigned hw_cores);

}  // namespace qforest::par
