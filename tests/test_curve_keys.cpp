/// \file test_curve_keys.cpp
/// \brief The forest's 64-bit curve keys (curve_key / curve_less in
/// forest/forest.hpp) against R::less: on random pairs at every level of
/// every representation, on pairs sharing a deep ancestor on both sides of
/// the key level K (where equal keys fall back to R::less), and on
/// ancestor/descendant pairs. A forest refined past level K must still
/// match the per-quadrant oracle on balance, ghosts and mirrors, faces and
/// search_points, on a brick whose trees meet at the refined corner.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"
#include "util/random.hpp"

namespace qforest {
namespace {

constexpr std::int64_t kRoot = std::int64_t{1} << kCanonicalLevel;

/// A random quadrant at exactly \p level, built from canonical
/// coordinates so every level up to R::max_level is reachable.
template <class R>
typename R::quad_t random_at(Xoshiro256& rng, int level) {
  const std::int64_t mask = ~((kRoot >> level) - 1);
  const auto coord = [&] {
    return static_cast<std::int64_t>(
               rng.next_below(static_cast<std::uint64_t>(kRoot))) &
           mask;
  };
  CanonicalQuadrant c;
  c.x = coord();
  c.y = coord();
  c.z = R::dim == 3 ? coord() : 0;
  c.level = level;
  return from_canonical<R>(c);
}

/// A random quadrant at \p level inside \p anc (level(anc) <= level).
template <class R>
typename R::quad_t random_inside(Xoshiro256& rng, const typename R::quad_t& anc,
                                 int level) {
  const CanonicalQuadrant a = to_canonical<R>(anc);
  const std::int64_t span = kRoot >> a.level;
  const std::int64_t mask = ~((kRoot >> level) - 1);
  const auto coord = [&](std::int64_t lo) {
    return (lo + static_cast<std::int64_t>(rng.next_below(
                     static_cast<std::uint64_t>(span)))) &
           mask;
  };
  CanonicalQuadrant c;
  c.x = coord(a.x);
  c.y = coord(a.y);
  c.z = R::dim == 3 ? coord(a.z) : 0;
  c.level = level;
  return from_canonical<R>(c);
}

template <class R>
::testing::AssertionResult orders_like_less(const typename R::quad_t& a,
                                            const typename R::quad_t& b) {
  const std::uint64_t ka = curve_key<R>(a);
  const std::uint64_t kb = curve_key<R>(b);
  for (const bool flip : {false, true}) {
    const auto& x = flip ? b : a;
    const auto& y = flip ? a : b;
    const bool got = flip ? curve_less<R>(kb, b, ka, a)
                          : curve_less<R>(ka, a, kb, b);
    if (got != R::less(x, y)) {
      const CanonicalQuadrant cx = to_canonical<R>(x);
      const CanonicalQuadrant cy = to_canonical<R>(y);
      return ::testing::AssertionFailure()
             << R::name << " curve_less != less for (" << cx.x << ","
             << cx.y << "," << cx.z << ",l" << cx.level << ") vs (" << cy.x
             << "," << cy.y << "," << cy.z << ",l" << cy.level << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

template <class R>
class CurveKeysT : public ::testing::Test {};
TYPED_TEST_SUITE(CurveKeysT, test::AllReps);

TYPED_TEST(CurveKeysT, OrderEqualsLessAtEveryLevel) {
  using R = TypeParam;
  Xoshiro256 rng(31);
  for (int la = 0; la <= R::max_level; ++la) {
    for (int k = 0; k < 64; ++k) {
      const int lb = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(R::max_level) + 1));
      const auto a = random_at<R>(rng, la);
      // Half the pairs share an ancestor, so their keys share a prefix.
      const int common = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(std::min(la, lb)) + 1));
      const auto b = rng.next_bool(0.5)
                         ? random_at<R>(rng, lb)
                         : random_inside<R>(rng, R::ancestor(a, common), lb);
      ASSERT_TRUE(orders_like_less<R>(a, b)) << la << " vs " << lb;
      ASSERT_TRUE(orders_like_less<R>(a, a));
    }
  }
}

/// Pairs on both sides of K that share an ancestor at K - 3 or deeper:
/// their keys tie whenever both are K or more levels deep in one level-K
/// cell, and the order must then come from R::less.
TYPED_TEST(CurveKeysT, PairsStraddlingKeyLevel) {
  using R = TypeParam;
  constexpr int k = kCurveKeyLevel<R::dim>;
  const int lo = std::min(R::max_level, R::dim == 3 ? 17 : 27);
  const int hi = std::min(R::max_level, R::dim == 3 ? 22 : 30);
  Xoshiro256 rng(47);
  int ties = 0;
  for (int la = lo; la <= hi; ++la) {
    for (int lb = lo; lb <= hi; ++lb) {
      for (int n = 0; n < 200; ++n) {
        const auto a = random_at<R>(rng, la);
        const int common = std::min({la, lb, k - 3 + static_cast<int>(
                                                         rng.next_below(5))});
        const auto b = random_inside<R>(rng, R::ancestor(a, common), lb);
        ties += curve_key<R>(a) == curve_key<R>(b) && !R::equal(a, b);
        ASSERT_TRUE(orders_like_less<R>(a, b)) << la << " vs " << lb;
      }
    }
  }
  // Only representations deeper than K can tie.
  if (R::max_level > k) {
    EXPECT_GT(ties, 0);
  } else {
    EXPECT_EQ(ties, 0);
  }
}

TYPED_TEST(CurveKeysT, AncestorsComeFirst) {
  using R = TypeParam;
  Xoshiro256 rng(5);
  for (int n = 0; n < 400; ++n) {
    const int level = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(R::max_level) + 1));
    const auto q = random_at<R>(rng, level);
    const std::uint64_t kq = curve_key<R>(q);
    for (int m = 0; m < level; ++m) {
      const auto anc = R::ancestor(q, m);
      const std::uint64_t ka = curve_key<R>(anc);
      EXPECT_LE(ka, kq);
      ASSERT_TRUE(curve_less<R>(ka, anc, kq, q)) << m << " above " << level;
      ASSERT_FALSE(curve_less<R>(kq, q, ka, anc)) << m << " above " << level;
    }
  }
}

/// The encoding does not depend on the representation: a quadrant every
/// representation can hold gets one key in all of them, whether read off
/// the Morton bits or interleaved from coordinates.
template <class... Rs>
void expect_same_keys(int dim) {
  const int top = std::min({Rs::max_level...});
  Xoshiro256 rng(static_cast<std::uint64_t>(dim));
  for (int n = 0; n < 2000; ++n) {
    const auto level =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(top) + 1));
    const std::int64_t mask = ~((kRoot >> level) - 1);
    CanonicalQuadrant q;
    q.x = static_cast<std::int64_t>(rng.next_u64() >> 4) & mask;
    q.y = static_cast<std::int64_t>(rng.next_u64() >> 4) & mask;
    q.z = dim == 3 ? static_cast<std::int64_t>(rng.next_u64() >> 4) & mask : 0;
    q.level = level;
    const std::vector<std::uint64_t> keys{
        curve_key<Rs>(from_canonical<Rs>(q))...};
    for (const std::uint64_t key : keys) {
      ASSERT_EQ(key, keys.front()) << "level " << level;
    }
  }
}

TEST(CurveKeys, SameKeyInEveryRepresentation) {
  expect_same_keys<StandardRep<2>, MortonRep<2>, AvxRep<2>,
                   WideMortonRep<2>>(2);
  expect_same_keys<StandardRep<3>, MortonRep<3>, AvxRep<3>,
                   WideMortonRep<3>>(3);
}

// ------------------------------------------------ a forest deeper than K

/// Ghosts and mirrors of every rank, faces, search_points and
/// is_balanced against the oracle.
template <class R>
void expect_reads_match_oracle(const Forest<R>& f,
                               const std::vector<PointQuery>& pts) {
  ASSERT_TRUE(f.is_valid());
  EXPECT_EQ(test::adjacency_sets(f, false), test::adjacency_sets(f, true));
  EXPECT_EQ(test::face_fingerprint(f, false), test::face_fingerprint(f, true));
  EXPECT_EQ(f.search_points(pts), oracle::search_points(f, pts));
  for (const BalanceKind kind : {BalanceKind::kFace, BalanceKind::kFull}) {
    EXPECT_EQ(f.is_balanced(kind), oracle::is_balanced(f, kind));
  }
}

/// Point chains to level 21 (3D) or 30 (2D), capped at R::max_level, into
/// the corner where all trees of a 2x2(x2) brick meet: tree 0 refines
/// toward its far corner and the last tree toward its origin, two levels
/// shallower, so deep keys cross tree faces, edges and corners.
TYPED_TEST(CurveKeysT, ForestDeeperThanKeyLevelMatchesOracle) {
  using R = TypeParam;
  using quad_t = typename R::quad_t;
  const int depth = std::min(R::max_level, R::dim == 3 ? 21 : 30);
  const auto conn = R::dim == 2 ? Connectivity::brick2d(2, 2)
                                : Connectivity::brick3d(2, 2, 2);
  const tree_id_t last = conn.num_trees() - 1;
  auto f = Forest<R>::new_uniform(conn, 1, 3);
  f.refine(true, [&](tree_id_t t, const quad_t& q) {
    const CanonicalQuadrant c = to_canonical<R>(q);
    const std::int64_t h = kRoot >> c.level;
    const std::int64_t at = t == 0 ? kRoot - h : 0;
    const int cap = t == 0 ? depth : depth - 2;
    return (t == 0 || t == last) && c.level < cap && c.x == at &&
           c.y == at && (R::dim == 2 || c.z == at);
  });
  ASSERT_EQ(f.max_level_used(), depth);
  // Points on both sides of the corner, within a few deepest leaf widths.
  Xoshiro256 rng(3);
  std::vector<PointQuery> pts;
  const std::int64_t near = (kRoot >> depth) * 4;
  for (int n = 0; n < 300; ++n) {
    PointQuery p;
    p.tree = rng.next_bool(0.5) ? 0 : last;
    const auto coord = [&] {
      const auto off = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(near)));
      return p.tree == 0 ? kRoot - 1 - off : off;
    };
    p.x = coord();
    p.y = coord();
    p.z = R::dim == 3 ? coord() : 0;
    pts.push_back(p);
  }
  {
    SCOPED_TRACE("refined");
    expect_reads_match_oracle(f, pts);
  }
  Forest<R> reference = f;
  (void)oracle::balance(reference, BalanceKind::kFull);
  test::for_each_kernel_and_grain(3, [&] {
    Forest<R> balanced = f;
    balanced.balance(BalanceKind::kFull);
    ASSERT_EQ(balanced.num_quadrants(), reference.num_quadrants());
    for (tree_id_t t = 0; t < f.num_trees(); ++t) {
      const auto& got = balanced.tree_quadrants(t);
      const auto& want = reference.tree_quadrants(t);
      ASSERT_EQ(got.size(), want.size()) << "tree " << t;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(R::equal(got[i], want[i])) << "tree " << t << " leaf " << i;
      }
    }
    SCOPED_TRACE("balanced");
    expect_reads_match_oracle(balanced, pts);
  });
}

}  // namespace
}  // namespace qforest
