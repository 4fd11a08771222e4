/// \file test_partition_ghost.cpp
/// \brief Simulated-rank partitioning (uniform and weighted) and ghost
/// layer construction.

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

using R = MortonRep<3>;
using S = StandardRep<2>;

TEST(Partition, UniformBlockDistribution) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(3), 3, 8);
  const gidx_t n = f.num_quadrants();
  gidx_t covered = 0;
  for (int r = 0; r < 8; ++r) {
    const auto [first, last] = f.rank_range(r);
    EXPECT_LE(first, last);
    covered += last - first;
    // Block distribution: sizes differ by at most 1.
    EXPECT_LE(last - first, (n + 7) / 8);
    EXPECT_GE(last - first, n / 8);
  }
  EXPECT_EQ(covered, n);
}

TEST(Partition, OwnerRankConsistentWithRanges) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(3), 2, 5);
  for (gidx_t g = 0; g < f.num_quadrants(); ++g) {
    const int r = f.owner_rank(g);
    const auto [first, last] = f.rank_range(r);
    EXPECT_GE(g, first);
    EXPECT_LT(g, last);
  }
}

TEST(Partition, WeightedSkewsBoundary) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(3), 2, 2);
  const gidx_t n = f.num_quadrants();
  // First half of the curve is 9x heavier: rank 0 should own fewer than
  // n/2 leaves after weighting.
  f.partition_weighted([&](tree_id_t, const R::quad_t& q) {
    return R::level_index(q) < static_cast<morton_t>(n) / 2 ? 9 : 1;
  });
  const auto [f0, l0] = f.rank_range(0);
  EXPECT_EQ(f0, 0);
  EXPECT_LT(l0 - f0, n / 2);
  const auto [f1, l1] = f.rank_range(1);
  EXPECT_EQ(l1, n);
  EXPECT_EQ(f1, l0);
}

TEST(Partition, WeightedUniformEqualsBlock) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(3), 2, 4);
  std::vector<std::pair<gidx_t, gidx_t>> uniform_ranges;
  for (int r = 0; r < 4; ++r) {
    uniform_ranges.push_back(f.rank_range(r));
  }
  f.partition_weighted([](tree_id_t, const R::quad_t&) { return 7; });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(f.rank_range(r), uniform_ranges[static_cast<std::size_t>(r)]);
  }
}

TEST(Partition, WeightedRejectsNonPositiveWeights) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(3), 2, 3);
  const gidx_t n = f.num_quadrants();
  // A skewed partition first, so a reset to the block distribution would
  // show as a change.
  f.partition_weighted([&](tree_id_t, const R::quad_t& q) {
    return R::level_index(q) < static_cast<morton_t>(n) / 3 ? 5 : 1;
  });
  std::vector<std::pair<gidx_t, gidx_t>> before;
  for (int r = 0; r < 3; ++r) {
    before.push_back(f.rank_range(r));
  }
  // The bad weight comes late in the curve, after many good ones.
  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{-4}}) {
    EXPECT_THROW(f.partition_weighted([&](tree_id_t, const R::quad_t& q) {
      return R::level_index(q) == static_cast<morton_t>(n) - 2 ? bad : 1;
    }), std::invalid_argument);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(f.rank_range(r), before[static_cast<std::size_t>(r)]);
    }
    EXPECT_TRUE(f.is_valid());
  }
}

TEST(Partition, SingleRankOwnsEverything) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(3), 2, 1);
  const auto [first, last] = f.rank_range(0);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, f.num_quadrants());
}

TEST(Ghost, UniformInteriorRankSeesShell) {
  // 4 ranks on a level-3 uniform 2D forest: every rank's ghost layer is
  // exactly the leaves adjacent to its contiguous curve segment.
  auto f = Forest<S>::new_uniform(Connectivity::unit(2), 3, 4);
  for (int r = 0; r < 4; ++r) {
    const auto ghost = f.ghost_layer(r);
    EXPECT_FALSE(ghost.entries.empty());
    const auto [first, last] = f.rank_range(r);
    for (const auto& e : ghost.entries) {
      EXPECT_TRUE(e.global_index < first || e.global_index >= last);
      EXPECT_NE(e.owner, r);
      EXPECT_EQ(f.owner_rank(e.global_index), e.owner);
    }
    // Sorted and unique.
    for (std::size_t i = 0; i + 1 < ghost.entries.size(); ++i) {
      EXPECT_LT(ghost.entries[i].global_index,
                ghost.entries[i + 1].global_index);
    }
  }
}

TEST(Ghost, EntriesAreExactlyAdjacentLeaves) {
  // Brute-force cross-check on a small forest: a remote leaf belongs to
  // the ghost layer iff its closed domain touches the rank's domain.
  auto f = Forest<S>::new_uniform(Connectivity::unit(2), 2, 3);
  for (int r = 0; r < 3; ++r) {
    const auto ghost = f.ghost_layer(r);
    std::set<gidx_t> got;
    for (const auto& e : ghost.entries) {
      got.insert(e.global_index);
    }
    std::set<gidx_t> want;
    const auto [first, last] = f.rank_range(r);
    for (gidx_t g = 0; g < f.num_quadrants(); ++g) {
      if (g >= first && g < last) {
        continue;
      }
      const auto [gt, gi] = f.locate(g);
      const auto& gq = f.tree_quadrants(gt)[gi];
      coord_t gx, gy, gz;
      int gl;
      S::to_coords(gq, gx, gy, gz, gl);
      const coord_t gh = S::length_at(gl);
      bool touches = false;
      for (gidx_t o = first; o < last && !touches; ++o) {
        const auto [ot, oi] = f.locate(o);
        const auto& oq = f.tree_quadrants(ot)[oi];
        coord_t ox, oy, oz;
        int ol;
        S::to_coords(oq, ox, oy, oz, ol);
        const coord_t oh = S::length_at(ol);
        touches = gx <= ox + oh && ox <= gx + gh && gy <= oy + oh &&
                  oy <= gy + gh;
      }
      if (touches) {
        want.insert(g);
      }
    }
    EXPECT_EQ(got, want) << "rank " << r;
  }
}

TEST(Ghost, CrossTreeGhostsAppear) {
  // Two trees side by side, partition cuts between them: each rank's
  // ghost layer must contain leaves of the other tree.
  auto f = Forest<S>::new_uniform(Connectivity::brick2d(2, 1), 2, 2);
  const auto ghost0 = f.ghost_layer(0);
  bool has_tree1 = false;
  for (const auto& e : ghost0.entries) {
    has_tree1 = has_tree1 || e.tree == 1;
  }
  EXPECT_TRUE(has_tree1);
}

TEST(Ghost, AdaptiveForestGhostValid) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(3), 2, 4);
  f.refine(false, [](tree_id_t, const R::quad_t& q) {
    return R::level_index(q) % 5 == 0;
  });
  f.balance(BalanceKind::kFull);
  for (int r = 0; r < 4; ++r) {
    const auto ghost = f.ghost_layer(r);
    const auto [first, last] = f.rank_range(r);
    for (const auto& e : ghost.entries) {
      EXPECT_TRUE(e.global_index < first || e.global_index >= last);
      EXPECT_TRUE(R::is_valid(e.quad));
    }
  }
}

TEST(Ghost, SingleRankHasEmptyGhost) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(3), 2, 1);
  EXPECT_TRUE(f.ghost_layer(0).entries.empty());
}

class GhostRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(GhostRankSweep, GhostsPartitionIndependentInvariants) {
  const int ranks = GetParam();
  auto f = Forest<S>::new_uniform(Connectivity::unit(2), 3, ranks);
  gidx_t total_ghosts = 0;
  for (int r = 0; r < ranks; ++r) {
    const auto ghost = f.ghost_layer(r);
    total_ghosts += static_cast<gidx_t>(ghost.entries.size());
    for (const auto& e : ghost.entries) {
      EXPECT_NE(e.owner, r);
    }
  }
  // Adjacency is symmetric: if g is in r's ghost layer, some leaf of r is
  // in owner(g)'s ghost layer; hence every rank with a nonempty ghost
  // layer is itself a ghost source. Weak but partition-independent check:
  EXPECT_GT(total_ghosts, 0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, GhostRankSweep,
                         ::testing::Values(2, 3, 4, 7, 16));

}  // namespace
}  // namespace qforest
