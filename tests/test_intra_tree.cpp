/// \file test_intra_tree.cpp
/// \brief Intra-tree (chunk-level) scheduling of refine / coarsen /
/// balance: equivalence of the chunked paths against the serial path at
/// adversarial chunk grains (1, 2, 7 — every chunk boundary lands inside
/// families and sibling runs) under both kernel settings, deterministic
/// exception propagation out of parallel adaptation callbacks, and
/// structural consistency of the forest after a rethrow.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

/// Restore the process-global scheduling switches after every test (they
/// are shared by the whole binary).
class IntraTreeEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_tree_ = tree_parallelism();
    saved_grain_ = chunk_grain();
  }
  void TearDown() override {
    set_tree_parallelism(saved_tree_);
    set_chunk_grain(saved_grain_);
  }

 private:
  bool saved_tree_ = true;
  std::size_t saved_grain_ = 0;
};

template <class R>
class IntraTreeT : public IntraTreeEnv {};
TYPED_TEST_SUITE(IntraTreeT, test::AllReps);

/// Deterministic pseudo-random refinement criterion: a pure function of
/// the canonical cell, so every scheduling of the callbacks marks the
/// same set.
template <class R>
bool hash_refine(const typename R::quad_t& q, int max_depth) {
  const CanonicalQuadrant c = to_canonical<R>(q);
  if (c.level >= max_depth) {
    return false;
  }
  const int s = kCanonicalLevel - 8;
  std::uint64_t h = static_cast<std::uint64_t>(c.x >> s) * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<std::uint64_t>(c.y >> s) * 0xC2B2AE3D27D4EB4Full;
  h ^= static_cast<std::uint64_t>(c.z >> s) * 0x165667B19E3779F9ull;
  h ^= static_cast<std::uint64_t>(c.level) << 32;
  return ((h >> 17) & 3) != 0;
}

template <class R>
bool hash_coarsen(const typename R::quad_t* fam, int keep_above) {
  const CanonicalQuadrant c = to_canonical<R>(fam[0]);
  if (c.level <= keep_above) {
    return false;
  }
  const int s = kCanonicalLevel - 8;
  const std::uint64_t h =
      (static_cast<std::uint64_t>(c.x >> s) * 31 +
       static_cast<std::uint64_t>(c.y >> s) * 17 +
       static_cast<std::uint64_t>(c.z >> s)) ^
      static_cast<std::uint64_t>(c.level);
  return (h & 1) != 0;
}

/// The adaptation pipeline under test: recursive refine (exercises the
/// later waves over fresh children), full balance, recursive coarsen — with the
/// payload channel on, so payload propagation is compared too.
template <class R>
Forest<R> run_pipeline() {
  auto f = Forest<R>::new_uniform(Connectivity::unit(R::dim), 2);
  f.enable_payload(7);
  f.refine(true, [](tree_id_t, const typename R::quad_t& q) {
    return hash_refine<R>(q, 4);
  });
  f.balance(BalanceKind::kFull);
  f.coarsen(true, [](tree_id_t, const typename R::quad_t* fam) {
    return hash_coarsen<R>(fam, 2);
  });
  return f;
}

template <class R>
::testing::AssertionResult same_forest(const Forest<R>& a,
                                       const Forest<R>& b) {
  if (a.num_quadrants() != b.num_quadrants()) {
    return ::testing::AssertionFailure()
           << "leaf counts differ: " << a.num_quadrants() << " vs "
           << b.num_quadrants();
  }
  for (tree_id_t t = 0; t < a.num_trees(); ++t) {
    const auto& ta = a.tree_quadrants(t);
    const auto& tb = b.tree_quadrants(t);
    if (ta.size() != tb.size()) {
      return ::testing::AssertionFailure()
             << "tree " << t << " sizes differ: " << ta.size() << " vs "
             << tb.size();
    }
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (!R::equal(ta[i], tb[i])) {
        return ::testing::AssertionFailure()
               << "tree " << t << " leaf " << i << " differs";
      }
      if (a.payload_enabled() &&
          a.tree_payloads(t)[i] != b.tree_payloads(t)[i]) {
        return ::testing::AssertionFailure()
               << "tree " << t << " payload " << i << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TYPED_TEST(IntraTreeT, TinyChunkGrainsMatchSerialPath) {
  using R = TypeParam;
  const auto pipeline = [](bool kernels) {
    const test::BatchFlagGuard flag(kernels);
    return run_pipeline<R>();
  };
  set_tree_parallelism(false);  // disables both levels: reference path
  const Forest<R> reference = pipeline(true);
  ASSERT_TRUE(reference.is_valid());
  // The generic kernel loops must give the batch kernels' leaves, on the
  // serial path and at every grain.
  EXPECT_TRUE(same_forest(reference, pipeline(false))) << "kernels off";
  set_tree_parallelism(true);
  for (const bool kernels : {true, false}) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}}) {
      set_chunk_grain(grain);
      const Forest<R> chunked = pipeline(kernels);
      EXPECT_TRUE(chunked.is_valid()) << "grain " << grain;
      EXPECT_TRUE(same_forest(reference, chunked))
          << "kernels " << (kernels ? "on" : "off") << ", grain " << grain;
    }
  }
}

TYPED_TEST(IntraTreeT, PerTreeOnlySchedulerMatchesChunked) {
  using R = TypeParam;
  set_tree_parallelism(true);
  set_chunk_grain(SIZE_MAX);  // per-tree only: each tree is one chunk
  const Forest<R> per_tree = run_pipeline<R>();
  set_chunk_grain(3);
  const Forest<R> chunked = run_pipeline<R>();
  EXPECT_TRUE(same_forest(per_tree, chunked));
}

TEST(ChunkCount, HugeGrainIsOneChunk) {
  // n + grain - 1 would wrap to a small number for these grains.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{4097}, SIZE_MAX}) {
    EXPECT_EQ(batch::chunk_count(n, SIZE_MAX), 1u) << n;
    EXPECT_EQ(batch::chunk_count(n, SIZE_MAX - 1), n == SIZE_MAX ? 2u : 1u)
        << n;
  }
  EXPECT_EQ(batch::chunk_count(0, SIZE_MAX), 0u);
  EXPECT_EQ(batch::chunk_count(10, 3), 4u);
}

TYPED_TEST(IntraTreeT, HugeChunkGrainMatchesDefaultGrain) {
  using R = TypeParam;
  const Forest<R> reference = run_pipeline<R>();
  const test::ChunkGrainGuard huge(SIZE_MAX);
  const auto uniform = Forest<R>::new_uniform(Connectivity::unit(R::dim), 2);
  EXPECT_TRUE(uniform.is_valid());
  EXPECT_EQ(uniform.num_quadrants(), gidx_t{1} << (2 * R::dim));
  const Forest<R> one_chunk = run_pipeline<R>();
  EXPECT_TRUE(one_chunk.is_valid());
  EXPECT_TRUE(same_forest(reference, one_chunk));
}

using R3 = MortonRep<3>;

TEST_F(IntraTreeEnv, MultiTreeTinyChunksMatchSerial) {
  auto build = [] {
    auto f = Forest<R3>::new_uniform(Connectivity::brick3d(2, 2, 1), 2);
    f.refine(true, [](tree_id_t, const R3::quad_t& q) {
      return hash_refine<R3>(q, 4);
    });
    f.balance(BalanceKind::kFull);
    return f;
  };
  set_tree_parallelism(false);
  const auto reference = build();
  set_tree_parallelism(true);
  set_chunk_grain(2);
  const auto chunked = build();
  EXPECT_TRUE(same_forest(reference, chunked));
}

TEST_F(IntraTreeEnv, BalanceGridReuseAcrossFixpointIterationsMatchesOracle) {
  // A corner chain refined far past its neighbors forces several balance
  // fixpoint iterations; after each apply, reindex rebuilds the grids of
  // the split trees only, and the next mark sweep reads every tree's.
  auto build = [] {
    auto f = Forest<R3>::new_uniform(Connectivity::brick3d(2, 1, 1), 1);
    f.enable_payload(3);
    f.refine(true, [](tree_id_t t, const R3::quad_t& q) {
      return t == 0 && R3::level(q) < 6 && R3::level_index(q) == 0;
    });
    return f;
  };
  auto reference = build();
  oracle::balance(reference, BalanceKind::kFull);
  EXPECT_TRUE(oracle::is_balanced(reference, BalanceKind::kFull));
  test::for_each_kernel_and_grain(5, [&] {
    auto balanced = build();
    balanced.balance(BalanceKind::kFull);
    EXPECT_TRUE(same_forest(reference, balanced));
    // The reindexed grids must also keep the no-op property: a second
    // balance changes nothing.
    const gidx_t leaves = balanced.num_quadrants();
    balanced.balance(BalanceKind::kFull);
    EXPECT_EQ(balanced.num_quadrants(), leaves);
  });
}

/// Structural consistency after a callback throw: the exception must
/// surface, and the forest must stay valid with offsets matching the
/// (possibly partially adapted) trees.
template <class R>
void expect_consistent(const Forest<R>& f) {
  EXPECT_TRUE(f.is_valid());
  gidx_t total = 0;
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    EXPECT_EQ(f.global_index(t, 0), total);
    total += static_cast<gidx_t>(f.tree_quadrants(t).size());
  }
  EXPECT_EQ(f.num_quadrants(), total);
}

TEST_F(IntraTreeEnv, RefineCallbackThrowLeavesForestConsistent) {
  set_chunk_grain(1);
  auto f = Forest<R3>::new_uniform(Connectivity::unit(3), 2);
  f.enable_payload(1);
  EXPECT_THROW(
      f.refine(false, [](tree_id_t, const R3::quad_t&) -> bool {
        throw std::runtime_error("refine boom");
      }),
      std::runtime_error);
  expect_consistent(f);
  EXPECT_EQ(f.num_quadrants(), 64);  // mark wave threw: nothing applied
}

TEST_F(IntraTreeEnv, RecursiveWaveThrowLeavesForestConsistent) {
  set_chunk_grain(2);
  auto f = Forest<R3>::new_uniform(Connectivity::unit(3), 1);
  // First wave succeeds everywhere, the incremental second wave throws.
  EXPECT_THROW(
      f.refine(true, [](tree_id_t, const R3::quad_t& q) -> bool {
        if (R3::level(q) == 1) {
          return true;
        }
        throw std::runtime_error("wave boom");
      }),
      std::runtime_error);
  expect_consistent(f);
  EXPECT_EQ(f.num_quadrants(), 64);  // wave 1 applied, wave 2 threw
}

TEST_F(IntraTreeEnv, CoarsenCallbackThrowLeavesForestConsistent) {
  set_chunk_grain(1);
  auto f = Forest<R3>::new_uniform(Connectivity::unit(3), 2);
  EXPECT_THROW(
      f.coarsen(false, [](tree_id_t, const R3::quad_t*) -> bool {
        throw std::runtime_error("coarsen boom");
      }),
      std::runtime_error);
  expect_consistent(f);
  EXPECT_EQ(f.num_quadrants(), 64);  // decision pass threw: no rebuild
}

TEST_F(IntraTreeEnv, MultiTreeThrowKeepsOtherTreesStructurallySound) {
  set_chunk_grain(4);
  auto f = Forest<R3>::new_uniform(Connectivity::brick3d(2, 1, 1), 2);
  EXPECT_THROW(
      f.refine(false, [](tree_id_t t, const R3::quad_t&) -> bool {
        if (t == 1) {
          throw std::runtime_error("tree 1 boom");
        }
        return true;
      }),
      std::runtime_error);
  // Tree 0 may have been refined before tree 1 threw; either way the
  // offsets must describe whatever the trees now hold.
  expect_consistent(f);
}

TEST_F(IntraTreeEnv, LowestIndexChunkExceptionWinsDeterministically) {
  // The suppressed-exception report is expected here; keep the test
  // output clean.
  const LogLevel saved_level = log_level();
  set_log_level(LogLevel::kSilent);
  set_chunk_grain(1);  // one leaf per chunk: chunk index == leaf index
  for (int round = 0; round < 20; ++round) {
    auto f = Forest<R3>::new_uniform(Connectivity::unit(3), 2);
    std::string what;
    try {
      f.refine(false, [](tree_id_t, const R3::quad_t& q) -> bool {
        throw std::runtime_error(
            std::to_string(R3::level_index(q)));
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    // Every chunk throws; the surfaced exception must be chunk 0's (the
    // curve-first leaf), independent of worker completion order.
    EXPECT_EQ(what, "0") << "round " << round;
  }
  set_log_level(saved_level);
}

TEST_F(IntraTreeEnv, CallbacksRunConcurrentlyWithinOneTree) {
  // Not a strict requirement of the contract (a 1-core host may never
  // overlap), but the callback count must be exact regardless of the
  // scheduling: every leaf is consulted exactly once per wave.
  set_chunk_grain(8);
  auto f = Forest<R3>::new_uniform(Connectivity::unit(3), 2);
  std::atomic<int> calls{0};
  f.refine(false, [&](tree_id_t, const R3::quad_t&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return false;
  });
  EXPECT_EQ(calls.load(), 64);
}

TEST_F(IntraTreeEnv, ReentrantAdaptationFromChunkCallbackRunsInline) {
  // A callback that adapts *another* forest must not deadlock the pool
  // and must produce the same result as doing it outside.
  set_chunk_grain(4);
  auto outer = Forest<R3>::new_uniform(Connectivity::unit(3), 2);
  std::atomic<gidx_t> inner_leaves{0};
  std::atomic<bool> once{false};
  outer.refine(false, [&](tree_id_t, const R3::quad_t&) {
    if (!once.exchange(true)) {
      auto inner = Forest<R3>::new_uniform(Connectivity::unit(3), 1);
      inner.refine(false,
                   [](tree_id_t, const R3::quad_t&) { return true; });
      inner_leaves.store(inner.num_quadrants());
    }
    return false;
  });
  EXPECT_EQ(inner_leaves.load(), 64);
}

}  // namespace
}  // namespace qforest
