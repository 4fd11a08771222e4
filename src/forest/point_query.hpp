#pragma once
/// \file point_query.hpp
/// \brief PointQuery: one point of a batched multi-point search
/// (Forest<R>::search_points, which VForest::search_points forwards to).

#include <cstdint>

#include "forest/connectivity.hpp"

namespace qforest {

/// One query point of a batched point location (`search_points`).
/// Coordinates live on the canonical 2^60 grid (core/canonical.hpp), the
/// representation-independent coordinate space, so the same query works
/// against every representation: valid queries satisfy `tree` in
/// [0, num_trees) and x, y, z in [0, 2^60) (z must be 0 in 2D).
///
/// Leaves are half-open boxes [origin, origin + extent) per axis: a point
/// on a shared face resolves deterministically to the leaf on the upper
/// side (the one whose box contains the point under that convention).
struct PointQuery {
  tree_id_t tree = 0;
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::int64_t z = 0;
};

}  // namespace qforest
