/// \file test_invariants.cpp
/// \brief Failure injection and structural edge cases: is_valid must
/// reject every way a leaf array can be broken, and boundary behaviors
/// (max level, empty trees, ghost symmetry) must hold.

#include <atomic>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

using R = MortonRep<2>;
using F = Forest<R>;

F small_forest() { return F::new_uniform(Connectivity::unit(2), 2); }

std::vector<std::vector<R::quad_t>> leaves_of(const F& f) {
  std::vector<std::vector<R::quad_t>> out;
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    out.push_back(f.tree_quadrants(t));
  }
  return out;
}

TEST(FailureInjection, UnsortedLeavesRejected) {
  auto f = small_forest();
  auto trees = leaves_of(f);
  std::swap(trees[0][1], trees[0][2]);
  f.replace_leaves(std::move(trees));
  EXPECT_FALSE(f.is_valid());
}

TEST(FailureInjection, DuplicateLeafRejected) {
  auto f = small_forest();
  auto trees = leaves_of(f);
  trees[0][1] = trees[0][0];
  f.replace_leaves(std::move(trees));
  EXPECT_FALSE(f.is_valid());
}

TEST(FailureInjection, OverlappingLeavesRejected) {
  auto f = small_forest();
  auto trees = leaves_of(f);
  // Replace a leaf with its own child: overlap with the sibling gap, and
  // the region is no longer fully covered.
  trees[0][3] = R::child(trees[0][3], 0);
  f.replace_leaves(std::move(trees));
  EXPECT_FALSE(f.is_valid());
}

TEST(FailureInjection, MissingLeafRejected) {
  auto f = small_forest();
  auto trees = leaves_of(f);
  trees[0].erase(trees[0].begin() + 5);
  f.replace_leaves(std::move(trees));
  EXPECT_FALSE(f.is_valid());
}

TEST(FailureInjection, ExtraLeafRejected) {
  auto f = small_forest();
  auto trees = leaves_of(f);
  // Append the first leaf's deep descendant after the last leaf: sorted
  // order is violated (and coverage double-counted).
  trees[0].push_back(R::child(trees[0][0], 0));
  f.replace_leaves(std::move(trees));
  EXPECT_FALSE(f.is_valid());
}

TEST(FailureInjection, RepeatedLeafArrayRejected) {
  // The second copy meets every cell the first one met: at a tiny grain,
  // the cell index build must still give each cell one writer.
  const test::ChunkGrainGuard tiny(2);
  auto f = small_forest();
  auto trees = leaves_of(f);
  const auto once = trees[0];
  trees[0].insert(trees[0].end(), once.begin(), once.end());
  f.replace_leaves(std::move(trees));
  EXPECT_FALSE(f.is_valid());
}

TEST(FailureInjection, GarbageWordRejected) {
  auto f = small_forest();
  auto trees = leaves_of(f);
  trees[0][0] = ~R::quad_t{0};  // invalid level byte and index bits
  f.replace_leaves(std::move(trees));
  EXPECT_FALSE(f.is_valid());
}

TEST(FailureInjection, EmptyTreeRejected) {
  auto f = small_forest();
  auto trees = leaves_of(f);
  trees[0].clear();
  f.replace_leaves(std::move(trees));
  EXPECT_FALSE(f.is_valid());
}

TEST(FailureInjection, ValidReplacementAccepted) {
  auto f = small_forest();
  auto trees = leaves_of(f);
  f.replace_leaves(std::move(trees));
  EXPECT_TRUE(f.is_valid());
}

TEST(EdgeCases, RefineAtMaxIndexLevelIsNoOp) {
  // MortonRep<2> allows deep levels; use a small forest at the cap by
  // refining one chain to max_level and asking again.
  auto f = F::new_root(Connectivity::unit(2));
  f.refine(true, [](tree_id_t, const R::quad_t& q) {
    return R::level(q) < R::max_level && R::level_index(q) == 0;
  });
  const gidx_t n = f.num_quadrants();
  EXPECT_EQ(f.max_level_used(), R::max_level);
  // Asking to refine everything: the max-level chain leaf must survive.
  f.refine(false, [](tree_id_t, const R::quad_t& q) {
    return R::level(q) >= R::max_level;  // only the capped leaf says yes
  });
  EXPECT_EQ(f.num_quadrants(), n);
  EXPECT_TRUE(f.is_valid());
}

TEST(EdgeCases, CoarsenRootForestIsNoOp) {
  auto f = F::new_root(Connectivity::unit(2));
  f.coarsen(true, [](tree_id_t, const R::quad_t*) { return true; });
  EXPECT_EQ(f.num_quadrants(), 1);
}

TEST(EdgeCases, CoarsenSkipsPartialFamilies) {
  auto f = F::new_uniform(Connectivity::unit(2), 1);
  // Refine leaf 0 only: leaves = {4 children of 0, 1, 2, 3}. The last
  // three level-1 leaves are 3/4 of a family (missing child 0 at level 1
  // -- it is refined), so nothing may coarsen into the root.
  f.refine(false, [](tree_id_t, const R::quad_t& q) {
    return R::level_index(q) == 0;
  });
  int calls = 0;
  f.coarsen(false, [&](tree_id_t, const R::quad_t* fam) {
    ++calls;
    // Every offered family must be a genuine family.
    EXPECT_EQ(R::child_id(fam[0]), 0);
    return false;
  });
  // The four children of former leaf 0 are the only complete family.
  EXPECT_EQ(calls, 1);
}

TEST(EdgeCases, GhostSymmetry) {
  // If leaf g (owned by o) is in rank r's ghost layer, then some leaf of
  // r is in rank o's ghost layer (adjacency is symmetric).
  auto f = Forest<StandardRep<2>>::new_uniform(Connectivity::unit(2), 3, 5);
  f.refine(false, [](tree_id_t, const StandardRep<2>::quad_t& q) {
    return StandardRep<2>::level_index(q) % 4 == 0;
  });
  std::vector<GhostLayer<StandardRep<2>>> ghosts;
  ghosts.reserve(5);
  for (int r = 0; r < 5; ++r) {
    ghosts.push_back(f.ghost_layer(r));
  }
  for (int r = 0; r < 5; ++r) {
    for (const auto& e : ghosts[static_cast<std::size_t>(r)].entries) {
      const int o = e.owner;
      bool reciprocated = false;
      for (const auto& back : ghosts[static_cast<std::size_t>(o)].entries) {
        if (back.owner == r) {
          reciprocated = true;
          break;
        }
      }
      EXPECT_TRUE(reciprocated) << "rank " << r << " sees ghosts of rank "
                                << o << " but not vice versa";
    }
  }
}

TEST(EdgeCases, SingleLeafTreeBrick) {
  // 3x3 brick of root-only trees: every neighbor lookup crosses trees.
  auto f = Forest<StandardRep<2>>::new_root(Connectivity::brick2d(3, 3));
  EXPECT_EQ(f.num_quadrants(), 9);
  EXPECT_TRUE(f.is_valid());
  EXPECT_TRUE(f.is_balanced(BalanceKind::kFull));
  std::atomic<gidx_t> faces{0}, boundaries{0};  // callback runs concurrently
  f.iterate_faces([&](const FaceInfo<StandardRep<2>>& info) {
    (info.is_boundary ? boundaries : faces) += 1;
  });
  EXPECT_EQ(faces, 12);       // 2 * 3 * 2 interior tree interfaces
  EXPECT_EQ(boundaries, 12);  // 4 * 3 outer faces
}

TEST(EdgeCases, LocateRoundTripsGlobalIndices) {
  auto f = Forest<MortonRep<3>>::new_uniform(
      Connectivity::brick3d(2, 2, 1), 2, 3);
  for (gidx_t g = 0; g < f.num_quadrants(); ++g) {
    const auto [t, i] = f.locate(g);
    EXPECT_EQ(f.global_index(t, i), g);
  }
}

}  // namespace
}  // namespace qforest
