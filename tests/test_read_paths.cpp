/// \file test_read_paths.cpp
/// \brief Parity of the read-side consumer paths against the per-quadrant
/// oracle (tests/forest_oracle.hpp): ghost_layer (multi-rank, cross-tree,
/// periodic wrap), mirrors (also == per-rank recomputation), iterate_faces
/// (hanging + boundary faces, unbalanced forests) and search_points, under
/// both kernel settings and tiny chunk grains that force many chunks.

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest/vforest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"
#include "util/random.hpp"

namespace qforest {
namespace {

/// A mixed-level forest: refine a deterministic scatter of leaves so the
/// mesh has hanging interfaces in every tree.
template <class R>
Forest<R> make_refined(Connectivity conn, int base, int ranks) {
  auto f = Forest<R>::new_uniform(std::move(conn), base, ranks);
  f.refine(false, [](tree_id_t t, const typename R::quad_t& q) {
    return (R::level_index(q) + static_cast<morton_t>(t)) % 5 == 0;
  });
  f.partition();
  return f;
}

/// Every rank's ghost set and mirror set as sorted global indices, from
/// the library (\p use_oracle false) or from the oracle.
template <class R>
std::pair<std::vector<std::vector<gidx_t>>, std::vector<std::vector<gidx_t>>>
adjacency_sets(const Forest<R>& f, bool use_oracle) {
  std::vector<std::vector<gidx_t>> ghosts, mirrors;
  for (int r = 0; r < f.num_ranks(); ++r) {
    const GhostLayer<R> layer =
        use_oracle ? oracle::ghost_layer(f, r) : f.ghost_layer(r);
    std::vector<gidx_t> g;
    for (const auto& e : layer.entries) {
      g.push_back(e.global_index);
    }
    ghosts.push_back(std::move(g));
    mirrors.push_back(use_oracle ? oracle::mirrors(f, r) : f.mirrors(r));
  }
  return {ghosts, mirrors};
}

/// Ghost sets and mirrors must match the oracle's under every kernel
/// setting; the tiny grain makes every chunk boundary a seam the sweep
/// must handle (span staging, cursor seeding, bucket merging).
template <class R>
void expect_ghost_parity(const Forest<R>& f) {
  const auto reference = adjacency_sets(f, true);
  test::for_each_kernel_and_grain(3, [&] {
    const auto got = adjacency_sets(f, false);
    ASSERT_EQ(got.first.size(), reference.first.size());
    for (std::size_t r = 0; r < got.first.size(); ++r) {
      EXPECT_EQ(got.first[r], reference.first[r]) << R::name << " rank " << r;
      EXPECT_EQ(got.second[r], reference.second[r])
          << R::name << " mirrors of rank " << r;
    }
  });
}

using S2 = StandardRep<2>;

template <class R>
class ReadPathsT : public ::testing::Test {};
TYPED_TEST_SUITE(ReadPathsT, test::AllReps);

TYPED_TEST(ReadPathsT, GhostParityMultiRank) {
  using R = TypeParam;
  const int base = R::dim == 3 ? 2 : 3;
  expect_ghost_parity(
      make_refined<R>(Connectivity::unit(R::dim), base, 4));
}

/// Multi-tree bricks (keys cross tree faces, edges and corners) and
/// periodic ones (keys also wrap back into the source tree: target == t
/// after the wrap).
template <class R>
std::vector<std::pair<Connectivity, int>> brick_meshes() {
  if constexpr (R::dim == 2) {
    return {{Connectivity::brick2d(3, 2), 2},
            {Connectivity::brick2d(1, 1, true, true), 3},
            {Connectivity::brick2d(2, 1, true, true), 2}};
  } else {
    return {{Connectivity::brick3d(2, 2, 2), 1},
            {Connectivity::brick3d(1, 1, 1, true, true, true), 2},
            {Connectivity::brick3d(2, 1, 2, false, true, false), 1}};
  }
}

TYPED_TEST(ReadPathsT, GhostParityCrossTreeAndPeriodic) {
  using R = TypeParam;
  int ranks = 3;
  for (const auto& [conn, base] : brick_meshes<R>()) {
    expect_ghost_parity(make_refined<R>(conn, base, ranks++));
  }
}

TEST(ReadPaths, MirrorsMatchPerRankRecomputation) {
  // Pin the one-pass mirrors() to the old O(ranks x ghost) definition:
  // own leaves appearing in some other rank's ghost layer.
  const auto f = make_refined<S2>(Connectivity::brick2d(2, 2), 2, 5);
  for (int r = 0; r < f.num_ranks(); ++r) {
    std::set<gidx_t> expected;
    const auto [first, last] = f.rank_range(r);
    for (int other = 0; other < f.num_ranks(); ++other) {
      if (other == r) {
        continue;
      }
      for (const auto& e : f.ghost_layer(other).entries) {
        if (e.global_index >= first && e.global_index < last) {
          expected.insert(e.global_index);
        }
      }
    }
    const std::vector<gidx_t> got = f.mirrors(r);
    EXPECT_EQ(got, std::vector<gidx_t>(expected.begin(), expected.end()))
        << "rank " << r;
  }
}

using FaceTuple = std::tuple<bool, bool, tree_id_t, std::size_t, int,
                             tree_id_t, std::size_t, int>;

/// Order-independent face fingerprint: one canonical tuple per emission,
/// from the library's concurrent iterate_faces or the oracle's serial one.
template <class R>
std::multiset<FaceTuple> face_fingerprint(const Forest<R>& f,
                                          bool use_oracle) {
  std::multiset<FaceTuple> out;
  std::mutex mu;
  const auto record = [&](const FaceInfo<R>& info) {
    const std::lock_guard<std::mutex> lock(mu);
    out.insert({info.is_boundary, info.is_hanging, info.tree[0],
                info.leaf_index[0], info.face[0], info.tree[1],
                info.leaf_index[1], info.face[1]});
  };
  if (use_oracle) {
    oracle::iterate_faces(f, record);
  } else {
    f.iterate_faces(record);
  }
  return out;
}

template <class R>
void expect_iterate_parity(const Forest<R>& f) {
  const auto reference = face_fingerprint(f, true);
  ASSERT_FALSE(reference.empty());
  test::for_each_kernel_and_grain(2, [&] {
    EXPECT_EQ(face_fingerprint(f, false), reference) << R::name;
  });
}

TYPED_TEST(ReadPathsT, IterateFacesParityHangingAndBoundary) {
  using R = TypeParam;
  const int base = R::dim == 3 ? 2 : 3;
  expect_iterate_parity(
      make_refined<R>(Connectivity::unit(R::dim), base, 1));
}

TEST(ReadPaths, IterateFacesParityUnbalanced) {
  // A refinement chain leaves the forest non-2:1-balanced: hanging pairs
  // may differ by several levels.
  auto f = Forest<S2>::new_uniform(Connectivity::unit(2), 1);
  f.refine(true, [](tree_id_t, const S2::quad_t& q) {
    const int l = S2::level(q);
    const morton_t chain = l == 0 ? 0 : (morton_t{1} << (2 * (l - 1))) - 1;
    return l < 5 && S2::level_index(q) == chain;
  });
  ASSERT_FALSE(f.is_balanced(BalanceKind::kFace));
  expect_iterate_parity(f);
}

TYPED_TEST(ReadPathsT, IterateFacesParityCrossTreeAndPeriodic) {
  using R = TypeParam;
  for (const auto& [conn, base] : brick_meshes<R>()) {
    expect_iterate_parity(make_refined<R>(conn, base, 1));
  }
}

/// Random in-domain canonical points, biased toward leaf boundaries (the
/// half-open convention's interesting case) by snapping some coordinates
/// to coarse grid lines.
std::vector<PointQuery> random_points(Xoshiro256& rng, int dim,
                                      tree_id_t num_trees, std::size_t n) {
  const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
  std::vector<PointQuery> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PointQuery p;
    p.tree = static_cast<tree_id_t>(rng.next_below(
        static_cast<std::uint64_t>(num_trees)));
    auto coord = [&]() {
      std::int64_t c = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(root)));
      if (rng.next_below(4) == 0) {
        c &= ~((std::int64_t{1} << (kCanonicalLevel - 3)) - 1);
      }
      return c;
    };
    p.x = coord();
    p.y = coord();
    p.z = dim == 3 ? coord() : 0;
    pts.push_back(p);
  }
  return pts;
}

TYPED_TEST(ReadPathsT, SearchPointsMatchesOracle) {
  using R = TypeParam;
  const int base = R::dim == 3 ? 2 : 3;
  const auto f =
      make_refined<R>(Connectivity::unit(R::dim), base, 1);
  Xoshiro256 rng(2024);
  const auto pts = random_points(rng, R::dim, f.num_trees(), 500);
  const std::vector<gidx_t> reference = oracle::search_points(f, pts);
  test::for_each_kernel_and_grain(7, [&] {
    EXPECT_EQ(f.search_points(pts), reference) << R::name;
  });
  // The resolved leaf must actually contain its point (half-open boxes).
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto [t, li] = f.locate(reference[i]);
    ASSERT_EQ(t, pts[i].tree);
    const CanonicalQuadrant c = to_canonical<R>(f.tree_quadrants(t)[li]);
    const std::int64_t h = std::int64_t{1}
                           << (kCanonicalLevel - c.level);
    EXPECT_TRUE(pts[i].x >= c.x && pts[i].x < c.x + h) << i;
    EXPECT_TRUE(pts[i].y >= c.y && pts[i].y < c.y + h) << i;
    if (R::dim == 3) {
      EXPECT_TRUE(pts[i].z >= c.z && pts[i].z < c.z + h) << i;
    }
  }
}

TEST(ReadPaths, SearchPointsMultiTree) {
  const auto f = make_refined<S2>(Connectivity::brick2d(3, 2), 2, 1);
  Xoshiro256 rng(7);
  const auto pts = random_points(rng, 2, f.num_trees(), 400);
  const std::vector<gidx_t> reference = oracle::search_points(f, pts);
  test::for_each_kernel_and_grain(
      5, [&] { EXPECT_EQ(f.search_points(pts), reference); });
}

TEST(ReadPaths, SearchPointsRejectsOutOfDomain) {
  const auto f = Forest<S2>::new_uniform(Connectivity::unit(2), 2);
  EXPECT_THROW((void)f.search_points({PointQuery{1, 0, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW((void)f.search_points({PointQuery{0, -1, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)f.search_points({PointQuery{0, 0, 0, 1}}),  // z != 0 in 2D
      std::invalid_argument);
}

TEST(ReadPaths, VForestSearchPointsMatchesTemplateForest) {
  // Same uniform mesh in both stacks: identical curve order, so global
  // indices must agree query-for-query.
  const int level = 3;
  const auto f = Forest<S2>::new_uniform(Connectivity::unit(2), level);
  const auto vf =
      VForest::new_uniform(RepKind::kStandard, Connectivity::unit(2), level);
  Xoshiro256 rng(99);
  const auto pts = random_points(rng, 2, 1, 300);
  const std::vector<gidx_t> expected = f.search_points(pts);
  const std::vector<std::int64_t> got = vf.search_points(pts);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << i;
  }
}

}  // namespace
}  // namespace qforest
