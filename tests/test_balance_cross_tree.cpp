/// \file test_balance_cross_tree.cpp
/// \brief Balance parity against the per-quadrant oracle
/// (tests/forest_oracle.hpp): the library's balance — one neighbor-key
/// sweep with bulk keys and sorted-merge lookups — must produce the
/// oracle's final mesh, and is_balanced must agree with the oracle's,
/// under both kernel settings and tiny chunk grains, when the 2:1 ripple
/// crosses one tree face, two faces (diagonal tree_step on 2 axes) and —
/// in 3D — tree edges and corners (tree_step on 3 axes), including
/// periodic wrap where the "neighbor" tree is the source tree itself.

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

/// Balance \p f with the oracle and with the library, under every kernel
/// setting and chunk grain, and require bit-identical leaf arrays tree for
/// tree; is_balanced must match the oracle's before and after. Balance
/// only ever splits, so equal final meshes imply the two mark phases
/// requested the same cumulative split sets.
template <class R>
void expect_mark_parity(const Forest<R>& f, BalanceKind kind) {
  Forest<R> reference = f;
  oracle::balance(reference, kind);
  ASSERT_TRUE(oracle::is_balanced(reference, kind)) << R::name;
  test::for_each_kernel_and_grain(3, [&] {
    EXPECT_EQ(f.is_balanced(kind), oracle::is_balanced(f, kind)) << R::name;
    Forest<R> balanced = f;
    balanced.balance(kind);
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

}  // namespace
}  // namespace qforest
