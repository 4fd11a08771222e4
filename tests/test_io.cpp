/// \file test_io.cpp
/// \brief Forest serialization + representation-independent checksums:
/// round trips, cross-representation loads, corruption rejection.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest/io.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

template <class R>
Forest<R> make_adaptive_forest() {
  const auto conn = R::dim == 2 ? Connectivity::brick2d(2, 1)
                                : Connectivity::brick3d(2, 1, 1);
  auto f = Forest<R>::new_uniform(conn, 2, 3);
  f.refine(false, [](tree_id_t t, const typename R::quad_t& q) {
    return (R::level_index(q) + static_cast<morton_t>(t)) % 3 == 0;
  });
  f.balance(BalanceKind::kFull);
  return f;
}

template <class R>
class IoT : public ::testing::Test {};

using IoReps = ::testing::Types<StandardRep<2>, MortonRep<2>, AvxRep<2>,
                                WideMortonRep<2>, StandardRep<3>,
                                MortonRep<3>, AvxRep<3>, WideMortonRep<3>>;
TYPED_TEST_SUITE(IoT, IoReps);

TYPED_TEST(IoT, SaveLoadRoundTrip) {
  using R = TypeParam;
  const auto f = make_adaptive_forest<R>();
  std::stringstream ss;
  save_forest(ss, f);
  const auto g = load_forest<R>(ss);
  ASSERT_EQ(g.num_trees(), f.num_trees());
  ASSERT_EQ(g.num_quadrants(), f.num_quadrants());
  EXPECT_EQ(g.num_ranks(), f.num_ranks());
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    const auto& a = f.tree_quadrants(t);
    const auto& b = g.tree_quadrants(t);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(R::equal(a[i], b[i]));
    }
  }
  EXPECT_EQ(forest_checksum(f), forest_checksum(g));
}

TYPED_TEST(IoT, ChecksumChangesWithMesh) {
  using R = TypeParam;
  auto f = make_adaptive_forest<R>();
  const std::uint64_t before = forest_checksum(f);
  f.refine(false, [](tree_id_t, const typename R::quad_t& q) {
    return R::level_index(q) == 1;
  });
  EXPECT_NE(forest_checksum(f), before);
}

TEST(IoCrossRep, SaveMortonLoadEverywhere3D) {
  const auto f = make_adaptive_forest<MortonRep<3>>();
  std::stringstream ss;
  save_forest(ss, f);
  const std::string blob = ss.str();
  const std::uint64_t want = forest_checksum(f);

  {
    std::istringstream in(blob);
    const auto g = load_forest<StandardRep<3>>(in);
    EXPECT_EQ(forest_checksum(g), want);
    EXPECT_EQ(g.num_quadrants(), f.num_quadrants());
  }
  {
    std::istringstream in(blob);
    const auto g = load_forest<AvxRep<3>>(in);
    EXPECT_EQ(forest_checksum(g), want);
  }
  {
    std::istringstream in(blob);
    const auto g = load_forest<WideMortonRep<3>>(in);
    EXPECT_EQ(forest_checksum(g), want);
  }
}

TEST(IoCrossRep, ChecksumEqualAcrossRepresentationsByConstruction) {
  // The same logical mesh built independently in every representation
  // hashes identically.
  const std::uint64_t hs =
      forest_checksum(make_adaptive_forest<StandardRep<3>>());
  EXPECT_EQ(forest_checksum(make_adaptive_forest<MortonRep<3>>()), hs);
  EXPECT_EQ(forest_checksum(make_adaptive_forest<AvxRep<3>>()), hs);
  EXPECT_EQ(forest_checksum(make_adaptive_forest<WideMortonRep<3>>()), hs);
}

TEST(IoErrors, BadMagicRejected) {
  std::istringstream in("NOPE....");
  EXPECT_THROW(load_forest<MortonRep<3>>(in), std::runtime_error);
}

TEST(IoErrors, TruncationRejected) {
  const auto f = make_adaptive_forest<MortonRep<3>>();
  std::stringstream ss;
  save_forest(ss, f);
  std::string blob = ss.str();
  blob.resize(blob.size() / 2);
  std::istringstream in(blob);
  EXPECT_THROW(load_forest<MortonRep<3>>(in), std::runtime_error);
}

TEST(IoErrors, DimensionMismatchRejected) {
  const auto f = make_adaptive_forest<MortonRep<2>>();
  std::stringstream ss;
  save_forest(ss, f);
  EXPECT_THROW(load_forest<MortonRep<3>>(ss), std::runtime_error);
}

TEST(IoErrors, LevelBeyondRepresentationRejected) {
  // A level-20 3D mesh cannot load into MortonRep<3> (max 18).
  auto f = Forest<StandardRep<3>>::new_root(Connectivity::unit(3));
  f.refine(true, [](tree_id_t, const StandardRep<3>::quad_t& q) {
    return StandardRep<3>::level(q) < 20 &&
           StandardRep<3>::level_index(q) == 0;
  });
  std::stringstream ss;
  save_forest(ss, f);
  EXPECT_THROW(load_forest<MortonRep<3>>(ss), std::invalid_argument);
}

/// A saved 3D brick3d(2, 1, 1) stream, for the corruption cases below.
/// Its header is magic, version, dim, three extents, three periodic flags
/// and a pad byte, the rank count and the tree count; tree 0's leaf count
/// follows at byte 36.
std::string adaptive_stream() {
  std::stringstream ss;
  save_forest(ss, make_adaptive_forest<MortonRep<3>>());
  return ss.str();
}

constexpr std::size_t kExtentXByte = 12;
constexpr std::size_t kExtentYByte = 16;
constexpr std::size_t kExtentZByte = 20;
constexpr std::size_t kTree0CountByte = 36;

TEST(IoErrors, HugeLeafCountRejected) {
  // A count far beyond the bytes left must fail as a truncated stream,
  // not as an allocation of that many leaves.
  for (const int bits : {40, 62}) {
    std::string blob = adaptive_stream();
    const std::uint64_t count = std::uint64_t{1} << bits;
    std::memcpy(blob.data() + kTree0CountByte, &count, sizeof count);
    std::istringstream in(blob);
    EXPECT_THROW(load_forest<MortonRep<3>>(in), std::runtime_error)
        << "count 2^" << bits;
  }
}

TEST(IoErrors, TreeCountOverflowRejected) {
  // Bit 30 of the y extent flipped: 2 * (2^30 + 1) trees exceed
  // tree_id_t.
  std::string blob = adaptive_stream();
  blob[kExtentYByte + 3] = static_cast<char>(blob[kExtentYByte + 3] ^ 0x40);
  std::istringstream in(blob);
  EXPECT_THROW(load_forest<MortonRep<3>>(in), std::invalid_argument);

  // Bit 30 flipped in all three extents: the product of the three is
  // near 2^90, beyond int64 as well.
  blob = adaptive_stream();
  for (const std::size_t at : {kExtentXByte, kExtentYByte, kExtentZByte}) {
    blob[at + 3] = static_cast<char>(blob[at + 3] ^ 0x40);
  }
  std::istringstream in3(blob);
  EXPECT_THROW(load_forest<MortonRep<3>>(in3), std::invalid_argument);
}

TEST(IoReplaceLeaves, RejectsWrongTreeCount) {
  auto f = Forest<MortonRep<3>>::new_uniform(Connectivity::unit(3), 1);
  EXPECT_THROW(f.replace_leaves({}), std::invalid_argument);
}

}  // namespace
}  // namespace qforest
