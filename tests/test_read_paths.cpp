/// \file test_read_paths.cpp
/// \brief Parity of the read-side consumer paths against the per-quadrant
/// oracle (tests/forest_oracle.hpp): ghost_layer (multi-rank, cross-tree,
/// periodic wrap), mirrors (also == per-rank recomputation), iterate_faces
/// (hanging + boundary faces, unbalanced forests), search_points and
/// is_balanced, under both kernel settings and tiny chunk grains that
/// force many chunks. The read paths borrow the forest's MarkGrids: they
/// must match the oracle after every kind of mesh change and never build a
/// grid themselves. Every rank's ghosts and mirrors come from one lazily
/// built rank adjacency: one build per mesh version and partition, safe
/// under concurrent cold reads, correct for ranks that own no leaf, and
/// sweeping only the leaves a leaf of another rank could touch.

#include <algorithm>
#include <cstdint>
#include <latch>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest/io.hpp"
#include "forest/vforest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
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

using test::adjacency_sets;
using test::face_fingerprint;

/// Ghost sets and mirrors must match the oracle's under every kernel
/// setting; the tiny grain makes every chunk boundary a seam the sweep
/// must handle (span staging, rank ranges, output parts). \p f keeps
/// the rank adjacency of its first read; each setting reads a copy, which
/// starts without it, so each runs the sweep itself.
template <class R>
void expect_ghost_parity(const Forest<R>& f) {
  const test::MetricsOn metrics;
  const obs::Counter& builds = obs::counter("forest.adjacency.builds");
  const auto reference = adjacency_sets(f, true);
  (void)f.ghost_layer(0);
  test::for_each_kernel_and_grain(3, [&] {
    const Forest<R> fresh = f;
    const std::uint64_t before = builds.value();
    const auto got = adjacency_sets(fresh, false);
    EXPECT_EQ(builds.value() - before, 1u) << R::name;
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

/// A 2x1(x1) brick, periodic in x, whose tree 0 stays one root leaf (a
/// one-cell MarkGrid) while tree 1 is refined 5 (2D) or 4 (3D) levels deep
/// toward its -x face, which adjoins tree 0: keys of either tree land in
/// the other at a level far from its leaves'.
template <class R>
Forest<R> root_beside_deep(int ranks) {
  const int depth = R::dim == 2 ? 5 : 4;
  auto f = Forest<R>::new_root(
      R::dim == 2 ? Connectivity::brick2d(2, 1, true, false)
                  : Connectivity::brick3d(2, 1, 1, true, false, false),
      ranks);
  f.refine(true, [depth](tree_id_t t, const typename R::quad_t& q) {
    return t == 1 && R::level(q) < depth && to_canonical<R>(q).x == 0;
  });
  f.partition();
  return f;
}

TYPED_TEST(ReadPathsT, GhostParityCrossTreeAndPeriodic) {
  using R = TypeParam;
  int ranks = 3;
  for (const auto& [conn, base] : brick_meshes<R>()) {
    expect_ghost_parity(make_refined<R>(conn, base, ranks++));
  }
  const auto deep = root_beside_deep<R>(ranks);
  ASSERT_EQ(deep.tree_quadrants(0).size(), 1u);
  expect_ghost_parity(deep);
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
  const auto deep = root_beside_deep<R>(1);
  expect_iterate_parity(deep);
  test::for_each_kernel_and_grain(2, [&] {
    for (const BalanceKind kind : {BalanceKind::kFace, BalanceKind::kFull}) {
      EXPECT_EQ(deep.is_balanced(kind), oracle::is_balanced(deep, kind))
          << R::name;
    }
  });
}

/// Random in-domain canonical points, biased toward leaf boundaries (the
/// half-open convention's interesting case) by snapping some coordinates
/// to coarse grid lines, then in every tree the points at each corner
/// (0 or root - 1 per axis: the near and far corners among them) and at
/// the center of each far face. The coordinate root - 1 lies in the last
/// MarkGrid cell, whose leaf range is clamped to the tree's end.
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
  const int naxes = dim == 3 ? 3 : 2;
  for (tree_id_t t = 0; t < num_trees; ++t) {
    for (unsigned corner = 0; corner < (1u << naxes); ++corner) {
      std::int64_t c[3] = {0, 0, 0};
      for (int a = 0; a < naxes; ++a) {
        c[a] = (corner >> a) & 1u ? root - 1 : 0;
      }
      pts.push_back(PointQuery{t, c[0], c[1], c[2]});
    }
    for (int a = 0; a < naxes; ++a) {
      std::int64_t c[3] = {root / 2, root / 2, dim == 3 ? root / 2 : 0};
      c[a] = root - 1;
      pts.push_back(PointQuery{t, c[0], c[1], c[2]});
    }
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
  for (const auto& f : {make_refined<S2>(Connectivity::brick2d(3, 2), 2, 1),
                        root_beside_deep<S2>(1)}) {
    Xoshiro256 rng(7);
    const auto pts = random_points(rng, 2, f.num_trees(), 400);
    const std::vector<gidx_t> reference = oracle::search_points(f, pts);
    test::for_each_kernel_and_grain(
        5, [&] { EXPECT_EQ(f.search_points(pts), reference); });
  }
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

// ------------------------------------------------ the forest-owned index

/// Every read path that sweeps the MarkGrids (each rank's ghost layer and
/// mirrors, the faces, is_balanced) against the oracle, on \p f as it is.
template <class R>
void expect_reads_match_oracle(const Forest<R>& f, const char* after) {
  SCOPED_TRACE(::testing::Message() << R::name << " after " << after);
  ASSERT_TRUE(f.is_valid());
  const auto got = adjacency_sets(f, false);
  const auto want = adjacency_sets(f, true);
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.second, want.second);
  EXPECT_EQ(face_fingerprint(f, false), face_fingerprint(f, true));
  for (const BalanceKind kind : {BalanceKind::kFace, BalanceKind::kFull}) {
    EXPECT_EQ(f.is_balanced(kind), oracle::is_balanced(f, kind));
  }
}

/// A two-tree brick (periodic in x in 2D) whose trees get different
/// refinement, so the cross-tree keys meet mixed levels.
template <class R>
Forest<R> two_tree_forest(int ranks) {
  if constexpr (R::dim == 2) {
    return make_refined<R>(Connectivity::brick2d(2, 1, true, false), 2,
                           ranks);
  } else {
    return make_refined<R>(Connectivity::brick3d(2, 1, 1), 1, ranks);
  }
}

/// A stale grid resolves keys against leaf ranges of the old mesh, so
/// each mutator must reindex: refine, coarsen, balance, replace_leaves,
/// load_forest, and a refine whose callback throws after its first wave
/// was applied (the exception path). The kernel/grain loop also builds
/// the grids at a tiny chunk grain.
TYPED_TEST(ReadPathsT, ReadsMatchOracleAfterEveryMutator) {
  using R = TypeParam;
  using quad_t = typename R::quad_t;
  test::for_each_kernel_and_grain(3, [&] {
    auto f = two_tree_forest<R>(3);
    // A chain into tree 0's corner at its +x face, three levels deeper
    // than the base: tree 1 across the face is then 2:1-unbalanced.
    const int top = R::level(f.tree_quadrants(1).back()) + 3;
    f.refine(true, [top](tree_id_t t, const quad_t& q) {
      const CanonicalQuadrant c = to_canonical<R>(q);
      const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - c.level);
      return t == 0 && c.level < top &&
             c.x + h == (std::int64_t{1} << kCanonicalLevel) && c.y == 0 &&
             c.z == 0;
    });
    expect_reads_match_oracle(f, "refine");

    const gidx_t unbalanced = f.num_quadrants();
    f.balance(BalanceKind::kFull);
    EXPECT_GT(f.num_quadrants(), unbalanced);
    expect_reads_match_oracle(f, "balance");

    f.coarsen(false, [](tree_id_t, const quad_t* fam) {
      return R::level_index(fam[0]) % 3 == 0;
    });
    expect_reads_match_oracle(f, "coarsen");

    auto finer = f;
    finer.refine(false, [](tree_id_t t, const quad_t& q) {
      return (R::level_index(q) + static_cast<morton_t>(t)) % 4 == 1;
    });
    std::vector<std::vector<quad_t>> trees;
    for (tree_id_t t = 0; t < finer.num_trees(); ++t) {
      trees.push_back(finer.tree_quadrants(t));
    }
    f.replace_leaves(std::move(trees));
    expect_reads_match_oracle(f, "replace_leaves");

    std::stringstream stream;
    save_forest(stream, f);
    expect_reads_match_oracle(load_forest<R>(stream), "load_forest");

    // Wave 1 refines the finest leaves with an even index; wave 2 visits
    // their children and throws.
    const int finest = f.max_level_used();
    const gidx_t before = f.num_quadrants();
    EXPECT_THROW(f.refine(true,
                          [finest](tree_id_t, const quad_t& q) -> bool {
                            if (R::level(q) > finest) {
                              throw std::runtime_error("refine boom");
                            }
                            return R::level(q) == finest &&
                                   R::level_index(q) % 2 == 0;
                          }),
                 std::runtime_error);
    EXPECT_GT(f.num_quadrants(), before);
    expect_reads_match_oracle(f, "a throwing refine");
  });
}

/// The read paths only borrow the grids: none of them builds one, while
/// a mesh change does.
TYPED_TEST(ReadPathsT, ReadPathsBuildNoGrid) {
  using R = TypeParam;
  const test::MetricsOn metrics;
  const obs::Counter& builds = obs::counter("forest.markgrid.builds");
  test::for_each_kernel_and_grain(3, [&] {
    auto f = two_tree_forest<R>(3);
    Xoshiro256 rng(5);
    const auto pts = random_points(rng, R::dim, f.num_trees(), 100);
    const std::uint64_t before = builds.value();
    for (int r = 0; r < f.num_ranks(); ++r) {
      (void)f.ghost_layer(r);
      (void)f.mirrors(r);
      (void)f.rank_work_split(r);
    }
    f.iterate_faces([](const FaceInfo<R>&) {});
    (void)f.search_points(pts);
    (void)f.is_balanced(BalanceKind::kFull);
    EXPECT_EQ(builds.value(), before);
    f.refine(false, [](tree_id_t, const typename R::quad_t& q) {
      return R::level_index(q) % 7 == 0;
    });
    EXPECT_GT(builds.value(), before);
  });
}

/// Every rank's ghost_layer, mirrors and rank_work_split of one mesh
/// version and partition share one adjacency build. A leaf change and
/// each kind of repartition drop it: the next reads build once more and
/// match the oracle, which a stale adjacency would not.
TYPED_TEST(ReadPathsT, AdjacencyBuiltOncePerMeshAndPartition) {
  using R = TypeParam;
  using quad_t = typename R::quad_t;
  const test::MetricsOn metrics;
  const obs::Counter& builds = obs::counter("forest.adjacency.builds");
  auto f = two_tree_forest<R>(3);
  const auto read_every_rank = [&] {
    for (int r = 0; r < f.num_ranks(); ++r) {
      (void)f.ghost_layer(r);
      (void)f.mirrors(r);
      (void)f.rank_work_split(r);
    }
  };
  const auto expect_one_build = [&](const char* after, auto&& change) {
    SCOPED_TRACE(::testing::Message() << R::name << " after " << after);
    change();
    const std::uint64_t before = builds.value();
    read_every_rank();
    EXPECT_EQ(builds.value() - before, 1u);
    read_every_rank();
    EXPECT_EQ(builds.value() - before, 1u) << "second round";
    const auto got = adjacency_sets(f, false);
    const auto want = adjacency_sets(f, true);
    EXPECT_EQ(got.first, want.first);
    EXPECT_EQ(got.second, want.second);
  };
  expect_one_build("construction", [] {});
  expect_one_build("refine", [&] {
    f.refine(false, [](tree_id_t, const quad_t& q) {
      return R::level_index(q) % 7 == 0;
    });
  });
  expect_one_build("partition", [&] { f.partition(); });
  expect_one_build("weighted partition", [&] {
    f.partition_weighted([](tree_id_t t, const quad_t& q) {
      return std::int64_t{1} + R::level(q) + t;
    });
  });
  expect_one_build("set_num_ranks", [&] { f.set_num_ranks(5); });
}

/// More ranks than leaves: the ranks left without a leaf have no ghosts,
/// mirrors, boundary or interior, and every rank matches the oracle.
TYPED_TEST(ReadPathsT, RanksWithoutLeavesHaveNoAdjacency) {
  using R = TypeParam;
  auto f = Forest<R>::new_uniform(Connectivity::unit(R::dim), 1);
  f.set_num_ranks(static_cast<int>(f.num_quadrants()) + 3);
  int empty = 0;
  for (int r = 0; r < f.num_ranks(); ++r) {
    const auto [first, last] = f.rank_range(r);
    if (first != last) {
      continue;
    }
    ++empty;
    EXPECT_TRUE(f.ghost_layer(r).entries.empty()) << "rank " << r;
    EXPECT_TRUE(f.mirrors(r).empty()) << "rank " << r;
    const RankWorkSplit split = f.rank_work_split(r);
    EXPECT_TRUE(split.boundary.empty()) << "rank " << r;
    EXPECT_TRUE(split.interior.empty()) << "rank " << r;
  }
  EXPECT_EQ(empty, 3);
  const auto got = adjacency_sets(f, false);
  const auto want = adjacency_sets(f, true);
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.second, want.second);
}

// ------------------------------------------- the adjacency sweep's sources

/// Leaves swept by the rank adjacency build of a copy of \p f (a copy
/// starts without the adjacency, so its first read builds it).
template <class R>
std::uint64_t swept_leaves(const Forest<R>& f) {
  const test::MetricsOn metrics;
  const obs::Counter& swept = obs::counter("forest.adjacency.swept_leaves");
  const Forest<R> fresh = f;
  const std::uint64_t before = swept.value();
  (void)fresh.ghost_layer(0);
  return swept.value() - before;
}

/// One rank owns every leaf's neighborhood: the build sweeps nothing and
/// the adjacency is empty, on periodic bricks too.
TYPED_TEST(ReadPathsT, OneRankSweepsNoLeaf) {
  using R = TypeParam;
  for (const auto& [conn, base] : brick_meshes<R>()) {
    const auto f = make_refined<R>(conn, base, 1);
    EXPECT_EQ(swept_leaves(f), 0u) << R::name;
    EXPECT_TRUE(f.ghost_layer(0).entries.empty()) << R::name;
    EXPECT_TRUE(f.mirrors(0).empty()) << R::name;
    expect_ghost_parity(f);
  }
}

/// A uniform mesh refined two levels deeper where it touches the plane
/// x = 1/2, so fine and coarse leaves meet along a band.
template <class R>
Forest<R> band_forest(int base, int ranks) {
  auto f = Forest<R>::new_uniform(Connectivity::unit(R::dim), base, ranks);
  const std::int64_t half = std::int64_t{1} << (kCanonicalLevel - 1);
  f.refine(true, [base, half](tree_id_t, const typename R::quad_t& q) {
    const CanonicalQuadrant c = to_canonical<R>(q);
    const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - c.level);
    return c.level < base + 2 && c.x <= half && half <= c.x + h;
  });
  f.partition();
  return f;
}

/// Leaves whose neighborhood their own rank owns are not swept, and the
/// ghosts and mirrors still match the oracle's.
TYPED_TEST(ReadPathsT, BandMeshSweepsOnlyRankBoundaryLeaves) {
  using R = TypeParam;
  const auto f = band_forest<R>(R::dim == 3 ? 2 : 3, 4);
  const std::uint64_t swept = swept_leaves(f);
  EXPECT_GT(swept, 0u) << R::name;
  EXPECT_LT(swept, static_cast<std::uint64_t>(f.num_quadrants())) << R::name;
  expect_ghost_parity(f);
}

/// Neighborhoods that leave the tree: on a periodic unit cube they wrap
/// back into the source tree; on a 2x2(x2) brick whose ranks own whole
/// trees they reach trees of the same rank and of others.
TYPED_TEST(ReadPathsT, SourcesAcrossTreesMatchOracle) {
  using R = TypeParam;
  const auto periodic =
      R::dim == 2 ? Connectivity::brick2d(1, 1, true, true)
                  : Connectivity::brick3d(1, 1, 1, true, true, true);
  const auto cube = make_refined<R>(periodic, 3, 3);
  EXPECT_LT(swept_leaves(cube),
            static_cast<std::uint64_t>(cube.num_quadrants()))
      << R::name;
  expect_ghost_parity(cube);

  const auto brick = Forest<R>::new_uniform(
      R::dim == 2 ? Connectivity::brick2d(2, 2)
                  : Connectivity::brick3d(2, 2, 2),
      R::dim == 3 ? 2 : 3, 2 * (R::dim - 1));
  for (int r = 0; r < brick.num_ranks(); ++r) {
    ASSERT_EQ(brick.rank_range(r).first,
              brick.global_index(static_cast<tree_id_t>(2 * r), 0));
  }
  EXPECT_LT(swept_leaves(brick),
            static_cast<std::uint64_t>(brick.num_quadrants()))
      << R::name;
  expect_ghost_parity(brick);
}

/// Representations deeper than K: a chain refined to level K + 2 at the
/// center puts several leaves into one level-K cell (they share a curve
/// key), and a weighted partition puts the rank boundary between two of
/// them. The two leaves touch, so each is a mirror of its rank.
TYPED_TEST(ReadPathsT, RankBoundaryInsideOneLevelKCell) {
  using R = TypeParam;
  using quad_t = typename R::quad_t;
  constexpr int k = kCurveKeyLevel<R::dim>;
  if constexpr (R::max_level <= k) {
    GTEST_SKIP() << R::name << " stops at level " << R::max_level;
  } else {
    auto f = Forest<R>::new_uniform(Connectivity::unit(R::dim), 1, 2);
    const std::int64_t at = (std::int64_t{1} << (kCanonicalLevel - 1)) - 1;
    f.refine(true, [at](tree_id_t, const quad_t& q) {
      const CanonicalQuadrant c = to_canonical<R>(q);
      const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - c.level);
      const auto holds = [&](std::int64_t lo) {
        return lo <= at && at < lo + h;
      };
      return c.level < k + 2 && holds(c.x) && holds(c.y) &&
             (R::dim == 2 || holds(c.z));
    });
    const std::vector<quad_t> tree = f.tree_quadrants(0);
    std::size_t group = 0;
    while (group + 1 < tree.size() &&
           curve_key<R>(tree[group]) != curve_key<R>(tree[group + 1])) {
      ++group;
    }
    std::size_t end = group;
    while (end < tree.size() &&
           curve_key<R>(tree[end]) == curve_key<R>(tree[group])) {
      ++end;
    }
    ASSERT_GE(end - group, 4u) << R::name;
    const std::size_t cut = group + (end - group) / 2;
    ASSERT_GT(R::level(tree[cut - 1]), k);
    ASSERT_GT(R::level(tree[cut]), k);
    // A weight past twice the leaf count on leaf cut - 1 puts the half-way
    // mark of the total weight right after it.
    const quad_t heavy = tree[cut - 1];
    const std::int64_t weight = 2 * f.num_quadrants() + 1;
    f.partition_weighted([&](tree_id_t, const quad_t& q) {
      return R::equal(q, heavy) ? weight : std::int64_t{1};
    });
    ASSERT_EQ(f.rank_range(1).first, static_cast<gidx_t>(cut));
    const std::vector<gidx_t> low = f.mirrors(0);
    const std::vector<gidx_t> high = f.mirrors(1);
    EXPECT_NE(std::find(low.begin(), low.end(), static_cast<gidx_t>(cut - 1)),
              low.end());
    EXPECT_NE(std::find(high.begin(), high.end(), static_cast<gidx_t>(cut)),
              high.end());
    expect_ghost_parity(f);
  }
}

/// Cold reads from several threads at once race to build the rank
/// adjacency; each thread must see what a serial read of a copy sees.
TYPED_TEST(ReadPathsT, ConcurrentColdReadsMatchSerialRead) {
  using R = TypeParam;
  constexpr int kThreads = 4;
  const auto f = two_tree_forest<R>(5);
  const auto serial = adjacency_sets(Forest<R>(f), false);
  std::vector<std::vector<std::vector<gidx_t>>> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> readers;
  for (int k = 0; k < kThreads; ++k) {
    readers.emplace_back([&, k] {
      auto& mine = seen[static_cast<std::size_t>(k)];
      mine.resize(static_cast<std::size_t>(f.num_ranks()));
      start.arrive_and_wait();
      // Each thread walks the ranks from a different first one.
      for (int i = 0; i < f.num_ranks(); ++i) {
        const int r = (i + k) % f.num_ranks();
        for (const auto& e : f.ghost_layer(r).entries) {
          mine[static_cast<std::size_t>(r)].push_back(e.global_index);
        }
      }
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
  for (int k = 0; k < kThreads; ++k) {
    EXPECT_EQ(seen[static_cast<std::size_t>(k)], serial.first)
        << R::name << " thread " << k;
  }
}

}  // namespace
}  // namespace qforest
