/// \file test_batch_dispatch.cpp
/// \brief BatchOps<R> equivalence: for every representation, every batched
/// entry point must agree element-for-element with the scalar R:: ops —
/// across random level-uniform batches, odd lengths (tail handling) and
/// the n = 0 / n = 1 degenerate cases, on both the SIMD and the
/// scalar-dispatch path (QFOREST_NO_BATCH semantics via batch::set_enabled).

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_ops.hpp"
#include "helpers.hpp"
#include "util/random.hpp"

namespace qforest {
namespace {

// Odd sizes exercise the SIMD tail; 0 and 1 are the degenerate cases.
constexpr std::size_t kSizes[] = {0, 1, 2, 3, 7, 64, 65, 257};

template <class R>
std::vector<typename R::quad_t> level_uniform_batch(Xoshiro256& rng,
                                                    std::size_t n,
                                                    int level) {
  std::vector<typename R::quad_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(test::random_quadrant_at<R>(rng, level));
  }
  return out;
}

/// Check every BatchOps<R> op against its scalar counterpart on one batch.
template <class R>
void check_ops(Xoshiro256& rng, std::size_t n, int level) {
  using B = BatchOps<R>;
  using quad_t = typename R::quad_t;
  const auto in = level_uniform_batch<R>(rng, n, level);
  std::vector<quad_t> out(n);

  for (int c = 0; c < DimConstants<R::dim>::num_children; ++c) {
    if (level < R::max_level) {
      B::child_uniform(in.data(), out.data(), n, c, level);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(R::equal(out[i], R::child(in[i], c)))
            << R::name << " child c=" << c << " i=" << i << " n=" << n;
      }
    }
    if (level > 0) {
      B::sibling_uniform(in.data(), out.data(), n, c, level);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(R::equal(out[i], R::sibling(in[i], c)))
            << R::name << " sibling s=" << c << " i=" << i << " n=" << n;
      }
    }
  }

  if (level > 0) {
    B::parent_uniform(in.data(), out.data(), n, level);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(R::equal(out[i], R::parent(in[i])))
          << R::name << " parent i=" << i << " n=" << n;
    }

    std::vector<int> ids(n);
    B::child_id_n(in.data(), ids.data(), n, level);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ids[i], R::child_id(in[i]))
          << R::name << " child_id i=" << i << " n=" << n;
    }
  }

  for (int f = 0; f < DimConstants<R::dim>::num_faces; ++f) {
    B::face_neighbor_uniform(in.data(), out.data(), n, f, level);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(R::equal(out[i], R::face_neighbor(in[i], f)))
          << R::name << " fneigh f=" << f << " i=" << i << " n=" << n;
    }
  }

  B::successor_n(in.data(), out.data(), n, level);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(R::equal(out[i], R::successor(in[i])))
        << R::name << " successor i=" << i << " n=" << n;
  }

  const int deeper = std::min(level + 2, test::max_index_level<R>());
  B::first_descendant_n(in.data(), out.data(), n, deeper);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(R::equal(out[i], R::first_descendant(in[i], deeper)))
        << R::name << " first_desc i=" << i << " n=" << n;
  }
  B::last_descendant_n(in.data(), out.data(), n, level, deeper);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(R::equal(out[i], R::last_descendant(in[i], deeper)))
        << R::name << " last_desc i=" << i << " n=" << n;
  }

  // morton_quadrant_n: bulk de-interleave of level-relative Morton
  // indices (the producer of new_uniform and the bench workload builder).
  if (R::dim * level < 64) {
    std::vector<morton_t> il(n);
    const morton_t cap = level == 0 ? 1 : (morton_t{1} << (R::dim * level));
    for (std::size_t i = 0; i < n; ++i) {
      il[i] = rng.next_below(cap);
    }
    B::morton_quadrant_n(il.data(), out.data(), n, level);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(R::equal(out[i], R::morton_quadrant(il[i], level)))
          << R::name << " morton_quadrant i=" << i << " n=" << n;
    }
  }

  // neighbor_at_offset_n: canonical neighbor keys of the balance mark
  // phase. Out-of-root coordinates are part of the contract (the caller
  // wraps them), so every offset is valid at every level.
  {
    std::vector<std::int64_t> nx(n), ny(n), nz(n);
    const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - level);
    const int zd = R::dim == 3 ? 1 : 0;
    const int offsets[][3] = {{1, 0, 0},   {-1, 0, 0},  {0, -1, zd},
                              {-1, 1, 0},  {1, 1, zd},  {-1, -1, -zd}};
    for (const auto& d : offsets) {
      B::neighbor_at_offset_n(in.data(), nx.data(), ny.data(), nz.data(), n,
                              d[0], d[1], d[2], level);
      for (std::size_t i = 0; i < n; ++i) {
        const CanonicalQuadrant c = to_canonical<R>(in[i]);
        ASSERT_EQ(nx[i], c.x + d[0] * h)
            << R::name << " nboff x d=(" << d[0] << "," << d[1] << ","
            << d[2] << ") i=" << i << " n=" << n;
        ASSERT_EQ(ny[i], c.y + d[1] * h)
            << R::name << " nboff y i=" << i << " n=" << n;
        ASSERT_EQ(nz[i], c.z + d[2] * h)
            << R::name << " nboff z i=" << i << " n=" << n;
      }
    }
  }

  // Comparators: a batch against a half-perturbed copy of itself.
  std::vector<quad_t> other = in;
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    other[i] = test::random_quadrant_at<R>(rng, level);
  }
  std::vector<std::uint8_t> mask(n);
  B::equal_mask(in.data(), other.data(), mask.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(mask[i] != 0, R::equal(in[i], other[i]))
        << R::name << " equal i=" << i << " n=" << n;
  }
  B::less_mask(in.data(), other.data(), mask.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(mask[i] != 0, R::less(in[i], other[i]))
        << R::name << " less i=" << i << " n=" << n;
  }

  // The adjacent-pair overlap used by sort/dedup sweeps (b = a + 1).
  if (n > 1) {
    B::equal_mask(in.data(), in.data() + 1, mask.data(), n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      ASSERT_EQ(mask[i] != 0, R::equal(in[i], in[i + 1]))
          << R::name << " adj-equal i=" << i << " n=" << n;
    }
    B::less_mask(in.data(), in.data() + 1, mask.data(), n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      ASSERT_EQ(mask[i] != 0, R::less(in[i], in[i + 1]))
          << R::name << " adj-less i=" << i << " n=" << n;
    }
  }
}

template <class R>
void check_all_sizes(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const int levels[] = {0, 1, 5,
                        std::min(7, test::max_index_level<R>() - 1)};
  for (const std::size_t n : kSizes) {
    for (const int level : levels) {
      check_ops<R>(rng, n, level);
    }
  }
}

template <class R>
class BatchDispatchT : public ::testing::Test {};
TYPED_TEST_SUITE(BatchDispatchT, test::AllReps);

TYPED_TEST(BatchDispatchT, MatchesScalarOps) {
  check_all_sizes<TypeParam>(42);
}

using test::BatchFlagGuard;

TYPED_TEST(BatchDispatchT, ScalarDispatchPathMatches) {
  // Force the generic scalar bodies even where SIMD kernels exist — the
  // path a non-AVX host takes — and require identical results.
  const BatchFlagGuard guard(false);
  check_all_sizes<TypeParam>(43);
}

TYPED_TEST(BatchDispatchT, InPlaceAliasingAllowed) {
  using R = TypeParam;
  Xoshiro256 rng(44);
  const int level = 4;
  auto quads = level_uniform_batch<R>(rng, 101, level);
  const auto orig = quads;
  BatchOps<R>::child_uniform(quads.data(), quads.data(), quads.size(), 1,
                             level);
  for (std::size_t i = 0; i < quads.size(); ++i) {
    ASSERT_TRUE(R::equal(quads[i], R::child(orig[i], 1)));
  }
}

TEST(BatchDispatch, AvxSpecializationIsSelected) {
  // The dispatch seam must actually route AvxRep to the SIMD kernels when
  // this build and host have them; everyone else reports no SIMD kernels.
  EXPECT_EQ(BatchOps<AvxRep<3>>::has_simd_kernels,
            static_cast<bool>(QFOREST_HAVE_AVX2));
  EXPECT_FALSE(BatchOps<StandardRep<3>>::has_simd_kernels);
  EXPECT_FALSE(BatchOps<MortonRep<3>>::has_simd_kernels);
  EXPECT_FALSE(BatchOps<WideMortonRep<3>>::has_simd_kernels);
  if (QFOREST_HAVE_AVX2 && simd::avx2_usable()) {
    EXPECT_TRUE(BatchOps<AvxRep<3>>::simd_active());
    const BatchFlagGuard guard(false);
    EXPECT_FALSE(BatchOps<AvxRep<3>>::simd_active());
  }
}

}  // namespace
}  // namespace qforest
