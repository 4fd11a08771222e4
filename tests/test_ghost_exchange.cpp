/// \file test_ghost_exchange.cpp
/// \brief Sharded asynchronous ghost-payload exchange vs the single-rank
/// shared-memory reference: payload equality across rank counts, reps and
/// both overlap orders; rank_work_split partition properties; hook
/// ordering of the overlap seam.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest/io.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

using R3 = MortonRep<3>;
using S2 = StandardRep<2>;

/// Mixed-level brick forest with a distinct payload per leaf (its global
/// index scrambled, so any misrouted message shows as a value mismatch).
template <class R>
Forest<R> make_payload_forest(Connectivity conn, int base, int ranks) {
  auto f = Forest<R>::new_uniform(std::move(conn), base, ranks);
  f.refine(false, [](tree_id_t t, const typename R::quad_t& q) {
    return (R::level_index(q) + static_cast<morton_t>(t)) % 3 == 0;
  });
  f.partition();
  f.enable_payload();
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    for (std::size_t i = 0; i < f.tree_quadrants(t).size(); ++i) {
      f.payload(t, i) =
          0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(
                                      f.global_index(t, i) + 1);
    }
  }
  return f;
}

template <class R>
std::vector<GhostLayer<R>> all_ghosts(const Forest<R>& f) {
  std::vector<GhostLayer<R>> ghosts;
  ghosts.reserve(static_cast<std::size_t>(f.num_ranks()));
  for (int r = 0; r < f.num_ranks(); ++r) {
    ghosts.push_back(f.ghost_layer(r));
  }
  return ghosts;
}

/// The shared-memory reference: Forest::ghost_exchange per rank.
template <class R>
std::vector<std::vector<std::uint64_t>> reference_exchange(
    const Forest<R>& f, const std::vector<GhostLayer<R>>& ghosts) {
  std::vector<std::vector<std::uint64_t>> ref;
  for (int r = 0; r < f.num_ranks(); ++r) {
    ref.push_back(
        f.ghost_exchange(r, ghosts[static_cast<std::size_t>(r)]));
  }
  return ref;
}

template <class R>
void expect_exchange_matches_reference(Forest<R> f) {
  const auto ghosts = all_ghosts(f);
  const auto ref = reference_exchange(f, ghosts);
  for (const bool overlap : {true, false}) {
    GhostExchangeOptions opt;
    opt.overlap = overlap;
    const GhostExchangeResult res =
        exchange_ghost_payloads(f, ghosts, opt);
    ASSERT_EQ(res.payloads.size(), ref.size());
    for (std::size_t r = 0; r < ref.size(); ++r) {
      EXPECT_EQ(res.payloads[r], ref[r])
          << "rank " << r << " overlap=" << overlap;
    }
  }
}

TEST(GhostExchange, MatchesReferenceAcrossRankCounts3D) {
  for (const int p : {1, 2, 3, 5, 8}) {
    auto f = make_payload_forest<R3>(Connectivity::brick3d(2, 2, 1), 2, p);
    expect_exchange_matches_reference(std::move(f));
  }
}

TEST(GhostExchange, MatchesReferenceAcrossRankCounts2D) {
  for (const int p : {1, 4, 7}) {
    auto f = make_payload_forest<S2>(Connectivity::brick2d(3, 2), 3, p);
    expect_exchange_matches_reference(std::move(f));
  }
}

TEST(GhostExchange, MatchesReferenceWithDeliveryDelay) {
  auto f = make_payload_forest<R3>(Connectivity::brick3d(2, 1, 1), 2, 4);
  const auto ghosts = all_ghosts(f);
  const auto ref = reference_exchange(f, ghosts);
  GhostExchangeOptions opt;
  opt.delivery_delay = std::chrono::microseconds(500);
  const GhostExchangeResult res = exchange_ghost_payloads(f, ghosts, opt);
  for (std::size_t r = 0; r < ref.size(); ++r) {
    EXPECT_EQ(res.payloads[r], ref[r]);
  }
}

TEST(GhostExchange, ReshardedForestStaysConsistent) {
  // set_num_ranks reuses one mesh across rank counts (the scaling-bench
  // pattern); every re-sharding must keep the exchange exact.
  auto f = make_payload_forest<R3>(Connectivity::brick3d(2, 2, 1), 2, 1);
  for (const int p : {6, 2, 9}) {
    f.set_num_ranks(p);
    ASSERT_EQ(f.num_ranks(), p);
    const auto ghosts = all_ghosts(f);
    const auto ref = reference_exchange(f, ghosts);
    const GhostExchangeResult res =
        exchange_ghost_payloads(f, ghosts, GhostExchangeOptions{});
    for (std::size_t r = 0; r < ref.size(); ++r) {
      EXPECT_EQ(res.payloads[r], ref[r]);
    }
  }

  // Fewer leaves than ranks: a two-tree brick with one tree refined once
  // (5 leaves) re-sharded to 8 ranks leaves 3 ranks empty. Refine, balance
  // and coarsen run on it; after each the partition stays contiguous, the
  // exchange stays exact in both overlap orders, and an empty rank gets
  // an empty buffer.
  auto g = make_payload_forest<S2>(Connectivity::brick2d(2, 1), 0, 1);
  ASSERT_EQ(g.num_quadrants(), 5);
  g.set_num_ranks(8);
  const auto check = [&g](const char* after, int want_empty) {
    SCOPED_TRACE(after);
    ASSERT_TRUE(g.is_valid());
    int empty = 0;
    gidx_t next = 0;
    for (int r = 0; r < g.num_ranks(); ++r) {
      const auto [first, last] = g.rank_range(r);
      EXPECT_EQ(first, next) << "rank " << r;
      EXPECT_LE(first, last) << "rank " << r;
      next = last;
      empty += first == last ? 1 : 0;
    }
    EXPECT_EQ(next, g.num_quadrants());
    EXPECT_EQ(empty, want_empty);
    expect_exchange_matches_reference(g);
    const auto ghosts = all_ghosts(g);
    const GhostExchangeResult res = exchange_ghost_payloads(g, ghosts);
    for (int r = 0; r < g.num_ranks(); ++r) {
      const auto [first, last] = g.rank_range(r);
      if (first == last) {
        EXPECT_TRUE(res.payloads[static_cast<std::size_t>(r)].empty())
            << "rank " << r;
      }
    }
  };
  check("set_num_ranks", 3);
  // Tree 0's level-1 leaf on its +x face splits: 8 leaves, one per rank.
  g.refine(false, [](tree_id_t t, const S2::quad_t& q) {
    return t == 0 && S2::level(q) == 1 && S2::level_index(q) == 1;
  });
  check("refine", 0);
  // Tree 1's root faces those level-2 leaves across the tree face.
  g.balance();
  ASSERT_EQ(g.num_quadrants(), 11);
  check("balance", 0);
  // Back to the two roots: 6 empty ranks.
  g.coarsen(true, [](tree_id_t, const S2::quad_t*) { return true; });
  ASSERT_EQ(g.num_quadrants(), 2);
  check("coarsen", 6);
}

TEST(GhostExchange, HooksRunOncePerRankInOverlapOrder) {
  auto f = make_payload_forest<R3>(Connectivity::brick3d(2, 1, 1), 2, 5);
  const auto ghosts = all_ghosts(f);
  const auto ref = reference_exchange(f, ghosts);
  for (const bool overlap : {true, false}) {
    GhostExchangeOptions opt;
    opt.overlap = overlap;
    std::vector<int> interior_calls(5, 0);
    std::vector<int> boundary_calls(5, 0);
    const GhostExchangeResult res = exchange_ghost_payloads(
        f, ghosts, opt,
        [&](int rank) {
          ++interior_calls[static_cast<std::size_t>(rank)];
          EXPECT_EQ(boundary_calls[static_cast<std::size_t>(rank)], 0)
              << "interior must run before boundary";
        },
        [&](int rank, const std::vector<std::uint64_t>& payloads) {
          ++boundary_calls[static_cast<std::size_t>(rank)];
          // The boundary pass observes the fully drained ghost buffer.
          EXPECT_EQ(payloads, ref[static_cast<std::size_t>(rank)]);
        });
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(interior_calls[static_cast<std::size_t>(r)], 1);
      EXPECT_EQ(boundary_calls[static_cast<std::size_t>(r)], 1);
    }
    (void)res;
  }
}

TEST(GhostExchange, RankSecondsReported) {
  auto f = make_payload_forest<R3>(Connectivity::brick3d(2, 1, 1), 2, 4);
  const auto ghosts = all_ghosts(f);
  const GhostExchangeResult res =
      exchange_ghost_payloads(f, ghosts, GhostExchangeOptions{});
  ASSERT_EQ(res.rank_seconds.size(), 4u);
  for (const double s : res.rank_seconds) {
    EXPECT_GE(s, 0.0);
  }
}

TEST(RankWorkSplit, PartitionsTheRankRange) {
  auto f = make_payload_forest<R3>(Connectivity::brick3d(2, 2, 1), 2, 7);
  for (int r = 0; r < f.num_ranks(); ++r) {
    const RankWorkSplit split = f.rank_work_split(r);
    EXPECT_EQ(split.boundary, f.mirrors(r));
    const auto [first, last] = f.rank_range(r);
    // Boundary indices and interior runs are disjoint, sorted, and
    // together cover [first, last) exactly.
    std::vector<gidx_t> covered;
    std::size_t bi = 0;
    gidx_t pos = first;
    auto take_boundary_up_to = [&](gidx_t stop) {
      while (bi < split.boundary.size() && split.boundary[bi] < stop) {
        covered.push_back(split.boundary[bi++]);
      }
    };
    for (const auto& [a, b] : split.interior) {
      ASSERT_LT(a, b);
      take_boundary_up_to(a);
      for (gidx_t g = a; g < b; ++g) {
        covered.push_back(g);
      }
      pos = b;
    }
    take_boundary_up_to(last);
    EXPECT_EQ(bi, split.boundary.size());
    ASSERT_EQ(covered.size(), static_cast<std::size_t>(last - first));
    EXPECT_TRUE(std::is_sorted(covered.begin(), covered.end()));
    for (std::size_t k = 0; k < covered.size(); ++k) {
      EXPECT_EQ(covered[k], first + static_cast<gidx_t>(k));
    }
    (void)pos;
  }
}

}  // namespace
}  // namespace qforest
