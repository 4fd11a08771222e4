/// \file test_balance_cross_tree.cpp
/// \brief Balance parity against the per-quadrant oracle
/// (tests/forest_oracle.hpp): the library's balance — a full neighbor-key
/// sweep, then sweeps of the frontier each split leaves, with bulk keys
/// and sorted-merge lookups — must produce the oracle's final mesh and
/// payloads in the oracle's number of iterations, and is_balanced must
/// agree with the oracle's, under both kernel settings and tiny chunk
/// grains, when the 2:1 ripple crosses one tree face, two faces (diagonal
/// tree_step on 2 axes) and — in 3D — tree edges and corners (tree_step
/// on 3 axes), including periodic wrap where the "neighbor" tree is the
/// source tree itself, and on seeded random forests with jumps of several
/// levels.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace qforest {
namespace {

/// Balance \p f with the oracle and with the library, under every kernel
/// setting and chunk grain, and require bit-identical leaf arrays and
/// payloads tree for tree, reached in the oracle's number of iterations;
/// is_balanced must match the oracle's before and after. Balance only
/// ever splits, so equal final meshes imply the two mark phases requested
/// the same cumulative split sets; equal iteration counts imply the
/// frontier sweeps found every split of their iteration. Every leaf of
/// the input gets its own payload, so a payload left at the wrong child
/// shows.
template <class R>
void expect_mark_parity(const Forest<R>& input, BalanceKind kind) {
  const test::MetricsOn metrics;
  const obs::Counter& iterations = obs::counter("forest.balance.iterations");
  Forest<R> f = input;
  f.enable_payload();
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    for (std::size_t i = 0; i < f.tree_quadrants(t).size(); ++i) {
      f.payload(t, i) = static_cast<std::uint64_t>(f.global_index(t, i)) + 1;
    }
  }
  Forest<R> reference = f;
  const int passes = oracle::balance(reference, kind);
  ASSERT_TRUE(oracle::is_balanced(reference, kind)) << R::name;
  test::for_each_kernel_and_grain(3, [&] {
    EXPECT_EQ(f.is_balanced(kind), oracle::is_balanced(f, kind)) << R::name;
    Forest<R> balanced = f;
    const std::uint64_t before = iterations.value();
    balanced.balance(kind);
    EXPECT_EQ(iterations.value() - before,
              static_cast<std::uint64_t>(passes))
        << R::name;
    ASSERT_TRUE(balanced.is_valid()) << R::name;
    ASSERT_TRUE(balanced.is_balanced(kind)) << R::name;
    ASSERT_EQ(reference.num_quadrants(), balanced.num_quadrants()) << R::name;
    for (tree_id_t t = 0; t < f.num_trees(); ++t) {
      const auto& rt = reference.tree_quadrants(t);
      const auto& bt = balanced.tree_quadrants(t);
      ASSERT_EQ(rt.size(), bt.size()) << R::name << " tree " << t;
      for (std::size_t i = 0; i < rt.size(); ++i) {
        ASSERT_TRUE(R::equal(rt[i], bt[i]))
            << R::name << " tree " << t << " leaf " << i;
      }
      ASSERT_EQ(reference.tree_payloads(t), balanced.tree_payloads(t))
          << R::name << " tree " << t;
    }
  });
}

/// Refine the chain of leaves hugging the given corner of tree \p which
/// (corner bit set => the +max side of that axis), to \p depth levels.
/// Canonical coordinates keep the predicate exact for every
/// representation, including the >32-bit wide-morton grids.
template <class R>
Forest<R> corner_refined(Connectivity conn, tree_id_t which, unsigned corner,
                         int depth) {
  auto f = Forest<R>::new_uniform(std::move(conn), 1, 2);
  const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
  f.refine(true, [&](tree_id_t t, const typename R::quad_t& q) {
    if (t != which) {
      return false;
    }
    const CanonicalQuadrant c = to_canonical<R>(q);
    if (c.level >= depth) {
      return false;
    }
    const std::int64_t h = root >> c.level;
    const std::int64_t lo[3] = {c.x, c.y, c.z};
    for (int a = 0; a < R::dim; ++a) {
      const bool hi = (corner >> a) & 1u;
      if (lo[a] != (hi ? root - h : 0)) {
        return false;
      }
    }
    return true;
  });
  return f;
}

template <class R>
class CrossTreeBalanceT : public ::testing::Test {};

TYPED_TEST_SUITE(CrossTreeBalanceT, test::AllReps);

TYPED_TEST(CrossTreeBalanceT, SingleFaceCrossing) {
  using R = TypeParam;
  const auto conn = R::dim == 2 ? Connectivity::brick2d(2, 1)
                                : Connectivity::brick3d(2, 1, 1);
  // +x face chain of tree 0 (corner bit 0 only): ripple into tree 1.
  const auto f = corner_refined<R>(conn, 0, 0b001, 6);
  expect_mark_parity(f, BalanceKind::kFull);
}

TYPED_TEST(CrossTreeBalanceT, TwoAxisDiagonalCrossing) {
  using R = TypeParam;
  const auto conn = R::dim == 2 ? Connectivity::brick2d(2, 2)
                                : Connectivity::brick3d(2, 2, 1);
  // (+x,+y) corner of tree 0: tree_step crosses two tree faces at once,
  // landing in the diagonal tree 3.
  const auto f = corner_refined<R>(conn, 0, 0b011, 6);
  for (const auto kind :
       {BalanceKind::kFace, BalanceKind::kEdge, BalanceKind::kFull}) {
    expect_mark_parity(f, kind);
  }
  // The diagonal neighbor must actually receive the ripple under kFull.
  Forest<R> full = f;
  full.balance(BalanceKind::kFull);
  EXPECT_GT(full.tree_quadrants(3).size(),
            static_cast<std::size_t>(1) << R::dim);
}

TEST(CrossTreeBalance3D, EdgeAndCornerCrossing) {
  using R = MortonRep<3>;
  // (+x,+y,+z) corner of tree 0 in a 2x2x2 brick: the ripple crosses
  // faces, the three 2-axis tree edges, and the 3-axis corner into the
  // antipodal tree 7.
  const auto f =
      corner_refined<R>(Connectivity::brick3d(2, 2, 2), 0, 0b111, 6);
  for (const auto kind :
       {BalanceKind::kFace, BalanceKind::kEdge, BalanceKind::kFull}) {
    expect_mark_parity(f, kind);
  }
  Forest<R> full = f;
  full.balance(BalanceKind::kFull);
  EXPECT_GT(full.tree_quadrants(7).size(), std::size_t{8});
}

TYPED_TEST(CrossTreeBalanceT, PeriodicWrapToSelf) {
  using R = TypeParam;
  // Fully periodic single-tree brick: every tree-crossing offset wraps
  // back into tree 0 itself, so the candidate bucketing must handle
  // target == source with a nonzero tree_step.
  const auto conn = R::dim == 2
                        ? Connectivity::brick2d(1, 1, true, true)
                        : Connectivity::brick3d(1, 1, 1, true, true, true);
  const auto f = corner_refined<R>(conn, 0, 0, 6);
  expect_mark_parity(f, BalanceKind::kFull);
}

TYPED_TEST(CrossTreeBalanceT, ScatteredRefinementParity) {
  using R = TypeParam;
  // Deterministic pseudo-random marks (hash of the level index, so the
  // predicate is pure and safe under the per-tree parallel callbacks)
  // scattered over a multi-tree brick: exercises many simultaneous
  // cross-tree candidates in every direction.
  const auto conn = R::dim == 2 ? Connectivity::brick2d(3, 2)
                                : Connectivity::brick3d(2, 2, 2);
  auto f = Forest<R>::new_uniform(conn, 1, 2);
  f.refine(true, [](tree_id_t t, const typename R::quad_t& q) {
    if (R::level(q) >= 5) {
      return false;
    }
    const std::uint64_t h =
        (static_cast<std::uint64_t>(R::level_index(q)) +
         static_cast<std::uint64_t>(t) * 1469598103934665603ull) *
        2654435761u;
    return (h >> 7) % 100 < 35;
  });
  expect_mark_parity(f, BalanceKind::kFull);
}

/// The generated forest of \p seed: a unit, brick or periodic brick
/// connectivity, uniform at level 1 or 2, with a sprinkle of single
/// refinements and 1 to 4 points refined toward, each 3 to 6 levels below
/// the base. Point coordinates are random or snapped to a multiple of a
/// quarter tree (0 and the far side included), so the deep chains abut
/// coarse cells and tree faces, edges and corners. The forest is built
/// in canonical coordinates and so is the same for every representation.
template <class R>
Forest<R> seeded_forest(std::uint64_t seed) {
  constexpr int d = R::dim;
  Xoshiro256 rng(seed);
  const auto below = [&rng](int n) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  Connectivity conn = Connectivity::unit(d);
  switch (below(3)) {
    case 1:
      conn = d == 2 ? Connectivity::brick2d(2 + below(2), 1 + below(2))
                    : Connectivity::brick3d(2, 1 + below(2), 1 + below(2));
      break;
    case 2:
      conn = d == 2 ? Connectivity::brick2d(1 + below(2), 1 + below(2),
                                            true, true)
                    : Connectivity::brick3d(1 + below(2), 1, 1 + below(2),
                                            true, true, true);
      break;
    default:
      break;
  }
  const int base = 1 + below(2);
  struct Target {
    tree_id_t tree;
    std::int64_t at[3];
    int level;
  };
  const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
  const auto coordinate = [&]() -> std::int64_t {
    if (rng.next_bool(0.5)) {
      return static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(root)));
    }
    return std::min(root - 1, below(5) * (root / 4));
  };
  std::vector<Target> targets(static_cast<std::size_t>(1 + below(4)));
  for (Target& target : targets) {
    target.tree = below(static_cast<int>(conn.num_trees()));
    target.at[0] = coordinate();
    target.at[1] = coordinate();
    target.at[2] = d == 3 ? coordinate() : 0;
    target.level = base + 3 + below(4);
  }
  const std::uint64_t salt = rng.next_below(std::uint64_t{1} << 32);
  auto f = Forest<R>::new_uniform(std::move(conn), base, 2);
  f.refine(true, [&](tree_id_t t, const typename R::quad_t& q) {
    const CanonicalQuadrant c = to_canonical<R>(q);
    const std::int64_t h = root >> c.level;
    const auto holds = [h](std::int64_t lo, std::int64_t p) {
      return lo <= p && p < lo + h;
    };
    for (const Target& target : targets) {
      if (t == target.tree && c.level < target.level &&
          holds(c.x, target.at[0]) && holds(c.y, target.at[1]) &&
          holds(c.z, target.at[2])) {
        return true;
      }
    }
    // A pure hash, so the concurrently called callback stays deterministic.
    const std::uint64_t hash =
        (static_cast<std::uint64_t>(R::level_index(q)) * 2654435761u +
         static_cast<std::uint64_t>(t) * 40503u + salt) *
        11400714819323198485ull;
    return c.level == base && (hash >> 40) % 8 == 0;
  });
  return f;
}

/// Balance parity on generated forests, for every BalanceKind.
template <class R>
void expect_seed_parity(std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  const Forest<R> f = seeded_forest<R>(seed);
  for (const auto kind :
       {BalanceKind::kFace, BalanceKind::kEdge, BalanceKind::kFull}) {
    SCOPED_TRACE(::testing::Message()
                 << "kind " << static_cast<int>(kind));
    expect_mark_parity(f, kind);
  }
}

TYPED_TEST(CrossTreeBalanceT, SeededForestsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expect_seed_parity<TypeParam>(seed);
  }
}

/// In 2D there are no edges: kEdge must balance exactly like kFace, and
/// the corner diagonals (kFull only) must make a difference.
template <class R>
class Balance2DT : public ::testing::Test {};

TYPED_TEST_SUITE(Balance2DT, test::Reps2D);

TYPED_TEST(Balance2DT, EdgeEqualsFace) {
  using R = TypeParam;
  const auto f = corner_refined<R>(Connectivity::brick2d(2, 2), 0, 0b11, 6);
  Forest<R> face = f;
  face.balance(BalanceKind::kFace);
  Forest<R> edge = f;
  edge.balance(BalanceKind::kEdge);
  Forest<R> full = f;
  full.balance(BalanceKind::kFull);
  EXPECT_GT(full.num_quadrants(), face.num_quadrants());
  ASSERT_EQ(edge.num_quadrants(), face.num_quadrants());
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    const auto& et = edge.tree_quadrants(t);
    const auto& ft = face.tree_quadrants(t);
    ASSERT_EQ(et.size(), ft.size()) << "tree " << t;
    for (std::size_t i = 0; i < et.size(); ++i) {
      EXPECT_TRUE(R::equal(et[i], ft[i])) << "tree " << t << " leaf " << i;
    }
  }
  for (const Forest<R>* g : std::vector<const Forest<R>*>{&f, &face, &full}) {
    EXPECT_EQ(g->is_balanced(BalanceKind::kEdge),
              g->is_balanced(BalanceKind::kFace));
  }
  EXPECT_TRUE(face.is_balanced(BalanceKind::kEdge));
  EXPECT_FALSE(face.is_balanced(BalanceKind::kFull));
}

/// After its first iteration balance sweeps only the frontier the last
/// split left: a single deep corner refinement ripples over several
/// iterations, yet the sweeps visit fewer than two forests' worth of
/// leaves in total.
TYPED_TEST(CrossTreeBalanceT, FrontierSweepsFewLeaves) {
  using R = TypeParam;
  const test::MetricsOn metrics;
  const obs::Counter& swept = obs::counter("forest.balance.swept_leaves");
  const obs::Counter& iterations = obs::counter("forest.balance.iterations");
  const auto conn = R::dim == 2 ? Connectivity::brick2d(2, 2)
                                : Connectivity::brick3d(2, 2, 2);
  auto f = corner_refined<R>(conn, 0, (1u << R::dim) - 1, 9);
  const std::uint64_t swept0 = swept.value();
  const std::uint64_t iterations0 = iterations.value();
  f.balance(BalanceKind::kFull);
  EXPECT_GE(iterations.value() - iterations0, 3u);
  EXPECT_LT(swept.value() - swept0,
            2 * static_cast<std::uint64_t>(f.num_quadrants()));
}

/// is_balanced stops at its first violation. Run chunk by chunk on one
/// thread, with the violation among the curve-first leaves (a chain
/// toward the far corner of the first level-3 cell, against the coarse
/// cells beyond it), it produces a fraction of the neighbor keys of the
/// full sweep that proves the balanced forest balanced.
TYPED_TEST(CrossTreeBalanceT, IsBalancedStopsAtFirstViolation) {
  using R = TypeParam;
  const test::MetricsOn metrics;
  const test::ChunkGrainGuard chunks(16);
  const bool parallel = tree_parallelism();
  set_tree_parallelism(false);
  const obs::Counter& scanned = obs::counter("forest.scan.keys");
  const auto keys = [&] { return scanned.value(); };
  auto f = Forest<R>::new_uniform(Connectivity::unit(R::dim), 3);
  const std::int64_t p = (std::int64_t{1} << kCanonicalLevel) / 8 - 1;
  f.refine(true, [p](tree_id_t, const typename R::quad_t& q) {
    const CanonicalQuadrant c = to_canonical<R>(q);
    const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - c.level);
    const auto holds = [&](std::int64_t lo) { return lo <= p && p < lo + h; };
    return c.level < 9 && holds(c.x) && holds(c.y) &&
           (R::dim == 2 || holds(c.z));
  });
  Forest<R> balanced = f;
  balanced.balance(BalanceKind::kFull);
  std::uint64_t before = keys();
  EXPECT_FALSE(f.is_balanced(BalanceKind::kFull));
  const std::uint64_t stopped = keys() - before;
  before = keys();
  EXPECT_TRUE(balanced.is_balanced(BalanceKind::kFull));
  const std::uint64_t full = keys() - before;
  set_tree_parallelism(parallel);
  EXPECT_GT(stopped, 0u);
  EXPECT_LT(stopped * 4, full) << stopped << " of " << full;
}

}  // namespace
}  // namespace qforest
