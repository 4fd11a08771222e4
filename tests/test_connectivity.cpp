/// \file test_connectivity.cpp
/// \brief Brick connectivity: face links, periodic wrap, validity.

#include <gtest/gtest.h>

#include "forest/connectivity.hpp"

namespace qforest {
namespace {

TEST(Connectivity, UnitTreeHasOnlyBoundaries) {
  const auto c2 = Connectivity::unit(2);
  EXPECT_EQ(c2.num_trees(), 1);
  for (int f = 0; f < 4; ++f) {
    EXPECT_TRUE(c2.tree_face_neighbor(0, f).is_boundary());
  }
  const auto c3 = Connectivity::unit(3);
  for (int f = 0; f < 6; ++f) {
    EXPECT_TRUE(c3.tree_face_neighbor(0, f).is_boundary());
  }
  EXPECT_TRUE(c2.is_valid());
  EXPECT_TRUE(c3.is_valid());
}

TEST(Connectivity, Brick2DLinks) {
  const auto c = Connectivity::brick2d(3, 2);
  EXPECT_EQ(c.num_trees(), 6);
  // Tree 0 at (0,0): +x neighbor is tree 1, +y neighbor is tree 3.
  EXPECT_EQ(c.tree_face_neighbor(0, 1).tree, 1);
  EXPECT_EQ(c.tree_face_neighbor(0, 1).face, 0);
  EXPECT_EQ(c.tree_face_neighbor(0, 3).tree, 3);
  EXPECT_EQ(c.tree_face_neighbor(0, 3).face, 2);
  EXPECT_TRUE(c.tree_face_neighbor(0, 0).is_boundary());
  EXPECT_TRUE(c.tree_face_neighbor(0, 2).is_boundary());
  // Middle tree 4 at (1,1).
  EXPECT_EQ(c.tree_face_neighbor(4, 0).tree, 3);
  EXPECT_EQ(c.tree_face_neighbor(4, 1).tree, 5);
  EXPECT_EQ(c.tree_face_neighbor(4, 2).tree, 1);
  EXPECT_TRUE(c.is_valid());
}

TEST(Connectivity, PeriodicWrap) {
  const auto c = Connectivity::brick2d(3, 1, true, true);
  // Crossing -x from tree 0 wraps to tree 2.
  EXPECT_EQ(c.tree_face_neighbor(0, 0).tree, 2);
  EXPECT_EQ(c.tree_face_neighbor(2, 1).tree, 0);
  // y extent 1 and periodic: tree is its own neighbor.
  EXPECT_EQ(c.tree_face_neighbor(1, 2).tree, 1);
  EXPECT_EQ(c.tree_face_neighbor(1, 3).tree, 1);
  EXPECT_TRUE(c.is_valid());
}

TEST(Connectivity, Brick3DCoordsRoundTrip) {
  const auto c = Connectivity::brick3d(2, 3, 4);
  EXPECT_EQ(c.num_trees(), 24);
  for (tree_id_t t = 0; t < c.num_trees(); ++t) {
    const auto p = c.tree_coords(t);
    EXPECT_EQ(c.tree_at(p[0], p[1], p[2]), t);
  }
  EXPECT_TRUE(c.is_valid());
}

TEST(Connectivity, OffsetNeighborDiagonal) {
  const auto c = Connectivity::brick2d(2, 2);
  // Tree 0 at (0,0): diagonal (+1,+1) is tree 3.
  EXPECT_EQ(c.tree_offset_neighbor(0, 1, 1, 0), 3);
  EXPECT_EQ(c.tree_offset_neighbor(0, -1, 0, 0), -1);
  EXPECT_EQ(c.tree_offset_neighbor(3, -1, -1, 0), 0);
}

TEST(Connectivity, InvalidArguments) {
  EXPECT_THROW(Connectivity::brick2d(0, 1), std::invalid_argument);
  EXPECT_THROW(Connectivity::brick3d(1, 1, 0), std::invalid_argument);
  // 2^32 trees: more than tree_id_t holds.
  EXPECT_THROW(Connectivity::brick2d(1 << 16, 1 << 16), std::invalid_argument);
  // 2^63 trees: the three-extent product overflows int64 too.
  EXPECT_THROW(Connectivity::brick3d(1 << 30, 1 << 30, 8),
               std::invalid_argument);
  // nx * ny fits, times nz does not.
  EXPECT_THROW(Connectivity::brick3d(1 << 15, 1 << 15, 1 << 30),
               std::invalid_argument);
}

}  // namespace
}  // namespace qforest
