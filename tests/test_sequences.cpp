/// \file test_sequences.cpp
/// \brief Generated operation sequences run in lockstep on the standard,
/// Morton, AVX and wide-Morton representations. Each seed picks a unit,
/// brick or periodic brick connectivity and a fixed budget of random
/// refine / coarsen / balance / partition / set_num_ranks steps whose
/// callbacks are pure hashes of the canonical quadrant, so every
/// representation is asked the same questions. A throwing refine step
/// raises from its second wave and a throwing recursive coarsen step from
/// its second pass or later; every forest must catch it, stay valid and
/// hold the same partial result. After every step the four
/// forests and the per-quadrant oracle (tests/forest_oracle.hpp) must
/// agree on the canonical leaf sets and is_valid(), every rank's ghosts
/// and mirrors, the face fingerprint, search_points and is_balanced.
/// Every leaf's payload is then set from a hash of its canonical quadrant,
/// and every rank's ghost payloads, exchanged by message passing in both
/// overlap orders, must equal the shared-memory ghost_exchange and the
/// hashes of the oracle's ghosts. One
/// VForest per representation kind follows the refine, coarsen and
/// balance steps through its run-time forwarding layer and must agree on
/// the leaves, is_valid(), search_points and is_balanced. A failure names
/// the seed and the step, which replay deterministically.

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest/io.hpp"
#include "forest/vforest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"
#include "util/random.hpp"

namespace qforest {
namespace {

constexpr std::int64_t kRoot = std::int64_t{1} << kCanonicalLevel;

/// A representation-independent hash of (tree, quadrant, salt).
std::uint64_t mix(tree_id_t t, const CanonicalQuadrant& c,
                  std::uint64_t salt) {
  std::uint64_t h = salt ^ 0x9E3779B97F4A7C15ull;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(c.x),
        static_cast<std::uint64_t>(c.y), static_cast<std::uint64_t>(c.z),
        static_cast<std::uint64_t>(c.level)}) {
    h = (h ^ v) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return h;
}

/// One generated operation; every representation applies the same one.
struct Step {
  enum class Kind { kRefine, kRefineThrow, kCoarsen, kCoarsenThrow,
                    kBalance, kPartition, kWeighted, kRanks };
  Kind kind = Kind::kRefine;
  bool recursive = false;
  std::uint64_t salt = 0;
  int percent = 0;      ///< refine / coarsen acceptance
  int max_level = 0;    ///< refine cap
  tree_id_t tree = 0;   ///< refine point chain: tree, point and depth
  std::int64_t at[3] = {0, 0, 0};
  int depth = -1;       ///< -1: no chain
  BalanceKind balance = BalanceKind::kFull;
  int ranks = 1;
  /// kRefineThrow, kCoarsenThrow: the (tree, x, y, z, level) of every leaf
  /// before the step.
  std::set<std::tuple<tree_id_t, std::int64_t, std::int64_t, std::int64_t,
                      int>>
      before;
};

/// What a kRefineThrow or kCoarsenThrow callback raises.
struct StepThrow {};

/// Everything the representations and the oracle must agree on, in
/// representation-independent form.
struct Snapshot {
  std::vector<std::vector<CanonicalQuadrant>> leaves;
  bool valid = false;
  std::vector<std::pair<gidx_t, gidx_t>> ranges;
  std::pair<std::vector<std::vector<gidx_t>>, std::vector<std::vector<gidx_t>>>
      adjacency;  ///< every rank's ghosts and mirrors
  std::multiset<test::FaceTuple> faces;
  std::vector<gidx_t> points;
  std::vector<bool> balanced;  ///< kFace, kEdge, kFull
  std::vector<std::vector<std::uint64_t>> ghost_payloads;  ///< per rank
};

/// Set every leaf's payload to the hash of its tree and canonical
/// quadrant under \p salt.
template <class R>
void set_payloads(Forest<R>& f, std::uint64_t salt) {
  if (!f.payload_enabled()) {
    f.enable_payload();
  }
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    const auto& tree = f.tree_quadrants(t);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      f.payload(t, i) = mix(t, to_canonical<R>(tree[i]), salt);
    }
  }
}

/// Every rank's ghost payloads: from the oracle's ghosts and the hash
/// set_payloads wrote, or from exchange_ghost_payloads, which must agree
/// in both overlap orders with the shared-memory ghost_exchange.
template <class R>
std::vector<std::vector<std::uint64_t>> ghost_payloads(const Forest<R>& f,
                                                       std::uint64_t salt,
                                                       bool use_oracle) {
  std::vector<std::vector<std::uint64_t>> out;
  if (use_oracle) {
    for (int r = 0; r < f.num_ranks(); ++r) {
      auto& mine = out.emplace_back();
      for (const auto& e : oracle::ghost_layer(f, r).entries) {
        mine.push_back(mix(e.tree, to_canonical<R>(e.quad), salt));
      }
    }
    return out;
  }
  std::vector<GhostLayer<R>> ghosts;
  for (int r = 0; r < f.num_ranks(); ++r) {
    ghosts.push_back(f.ghost_layer(r));
  }
  for (const bool overlap : {true, false}) {
    GhostExchangeOptions opt;
    opt.overlap = overlap;
    const GhostExchangeResult res = exchange_ghost_payloads(f, ghosts, opt);
    for (int r = 0; r < f.num_ranks(); ++r) {
      const auto ri = static_cast<std::size_t>(r);
      EXPECT_EQ(res.payloads[ri], f.ghost_exchange(r, ghosts[ri]))
          << R::name << " rank " << r << " overlap " << overlap;
    }
    out = res.payloads;
  }
  return out;
}

template <class R>
Snapshot snapshot(const Forest<R>& f, const std::vector<PointQuery>& pts,
                  std::uint64_t salt, bool use_oracle) {
  Snapshot s;
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    auto& out = s.leaves.emplace_back();
    for (const auto& q : f.tree_quadrants(t)) {
      out.push_back(to_canonical<R>(q));
    }
  }
  s.valid = f.is_valid();
  for (int r = 0; r < f.num_ranks(); ++r) {
    s.ranges.push_back(f.rank_range(r));
  }
  s.adjacency = test::adjacency_sets(f, use_oracle);
  s.faces = test::face_fingerprint(f, use_oracle);
  s.points = use_oracle ? oracle::search_points(f, pts) : f.search_points(pts);
  for (const BalanceKind kind :
       {BalanceKind::kFace, BalanceKind::kEdge, BalanceKind::kFull}) {
    s.balanced.push_back(use_oracle ? oracle::is_balanced(f, kind)
                                    : f.is_balanced(kind));
  }
  s.ghost_payloads = ghost_payloads(f, salt, use_oracle);
  return s;
}

void expect_same(const Snapshot& a, const Snapshot& b, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.ranges, b.ranges);
  EXPECT_EQ(a.adjacency, b.adjacency);
  EXPECT_EQ(a.faces, b.faces);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.balanced, b.balanced);
  EXPECT_EQ(a.ghost_payloads, b.ghost_payloads);
}

/// The refine step's decision for leaf \p c of tree \p t.
bool refines(const Step& step, tree_id_t t, const CanonicalQuadrant& c) {
  if (step.depth >= 0) {
    const std::int64_t h = kRoot >> c.level;
    const auto holds = [h](std::int64_t lo, std::int64_t p) {
      return lo <= p && p < lo + h;
    };
    if (t == step.tree && c.level < step.depth && holds(c.x, step.at[0]) &&
        holds(c.y, step.at[1]) && holds(c.z, step.at[2])) {
      return true;
    }
  }
  return c.level < step.max_level &&
         mix(t, c, step.salt) % 100 <
             static_cast<std::uint64_t>(step.percent);
}

/// The throwing refine step's decision for leaf \p c of tree \p t: that of
/// a refine step, except that it throws on a hashed share of the children
/// the step's first wave created (those whose parent was a leaf before the
/// step), so the throw lands in the second wave.
bool refines_or_throws(const Step& step, tree_id_t t,
                       const CanonicalQuadrant& c) {
  if (c.level > 0) {
    const std::int64_t h = kRoot >> (c.level - 1);
    if (step.before.contains({t, c.x & -h, c.y & -h, c.z & -h, c.level - 1}) &&
        mix(t, c, ~step.salt) % 3 == 0) {
      throw StepThrow{};
    }
  }
  return refines(step, t, c);
}

/// The coarsen step's decision for the family of parent \p c in tree \p t.
bool coarsens(const Step& step, tree_id_t t, const CanonicalQuadrant& c) {
  return mix(t, c, step.salt) % 100 <
         static_cast<std::uint64_t>(step.percent);
}

/// The throwing coarsen step's decision for the family of parent \p c in
/// tree \p t whose first member is \p first: that of a coarsen step,
/// except that it throws on a hashed share of the families whose first
/// member was not a leaf before the step (a parent an earlier pass of the
/// step created), so the throw lands in the second pass or later.
bool coarsens_or_throws(const Step& step, tree_id_t t,
                        const CanonicalQuadrant& first,
                        const CanonicalQuadrant& c) {
  if (!step.before.contains({t, first.x, first.y, first.z, first.level}) &&
      mix(t, c, ~step.salt) % 2 == 0) {
    throw StepThrow{};
  }
  return coarsens(step, t, c);
}

/// Applies \p step to \p f; returns whether a throwing step threw.
template <class R>
bool apply(Forest<R>& f, const Step& step) {
  using quad_t = typename R::quad_t;
  switch (step.kind) {
    case Step::Kind::kRefine:
      f.refine(step.recursive, [&step](tree_id_t t, const quad_t& q) {
        return refines(step, t, to_canonical<R>(q));
      });
      break;
    case Step::Kind::kRefineThrow:
      try {
        f.refine(true, [&step](tree_id_t t, const quad_t& q) {
          return refines_or_throws(step, t, to_canonical<R>(q));
        });
      } catch (const StepThrow&) {
        return true;
      }
      break;
    case Step::Kind::kCoarsen:
      f.coarsen(step.recursive, [&step](tree_id_t t, const quad_t* fam) {
        return coarsens(step, t, to_canonical<R>(R::parent(fam[0])));
      });
      break;
    case Step::Kind::kCoarsenThrow:
      try {
        f.coarsen(true, [&step](tree_id_t t, const quad_t* fam) {
          return coarsens_or_throws(step, t, to_canonical<R>(fam[0]),
                                    to_canonical<R>(R::parent(fam[0])));
        });
      } catch (const StepThrow&) {
        return true;
      }
      break;
    case Step::Kind::kBalance:
      f.balance(step.balance);
      break;
    case Step::Kind::kPartition:
      f.partition();
      break;
    case Step::Kind::kWeighted:
      f.partition_weighted([&step](tree_id_t t, const quad_t& q) {
        return static_cast<std::int64_t>(
            1 + mix(t, to_canonical<R>(q), step.salt) % 4);
      });
      break;
    case Step::Kind::kRanks:
      f.set_num_ranks(step.ranks);
      break;
  }
  return false;
}

/// The same step on a VForest. Partition, weighted-partition and
/// set_num_ranks steps leave the leaves unchanged, and a VForest has no
/// ranks, so it skips them. Returns whether a throwing step threw.
bool apply(VForest& f, const Step& step) {
  const VirtualQuadrantOps& ops = f.ops();
  switch (step.kind) {
    case Step::Kind::kRefine:
      f.refine(step.recursive, [&](tree_id_t t, const VQuad& q) {
        return refines(step, t, ops.canonical(q));
      });
      break;
    case Step::Kind::kRefineThrow:
      try {
        f.refine(true, [&](tree_id_t t, const VQuad& q) {
          return refines_or_throws(step, t, ops.canonical(q));
        });
      } catch (const StepThrow&) {
        return true;
      }
      break;
    case Step::Kind::kCoarsen:
      f.coarsen(step.recursive, [&](tree_id_t t, const VQuad* fam) {
        return coarsens(step, t, ops.canonical(ops.parent(fam[0])));
      });
      break;
    case Step::Kind::kCoarsenThrow:
      try {
        f.coarsen(true, [&](tree_id_t t, const VQuad* fam) {
          return coarsens_or_throws(step, t, ops.canonical(fam[0]),
                                    ops.canonical(ops.parent(fam[0])));
        });
      } catch (const StepThrow&) {
        return true;
      }
      break;
    case Step::Kind::kBalance:
      f.balance(step.balance);
      break;
    default:
      break;
  }
  return false;
}

/// The parts of \p reference a VForest can show: leaves, is_valid(),
/// search_points and is_balanced for every kind.
void expect_same(const VForest& f, const std::vector<PointQuery>& pts,
                 const Snapshot& reference) {
  SCOPED_TRACE(::testing::Message() << "VForest " << rep_kind_name(f.kind()));
  std::vector<std::vector<CanonicalQuadrant>> leaves;
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    auto& out = leaves.emplace_back();
    for (const VQuad& q : f.tree_quadrants(t)) {
      out.push_back(f.ops().canonical(q));
    }
  }
  ASSERT_EQ(leaves, reference.leaves);
  EXPECT_EQ(f.is_valid(), reference.valid);
  EXPECT_EQ(f.search_points(pts), reference.points);
  std::vector<bool> balanced;
  for (const BalanceKind kind :
       {BalanceKind::kFace, BalanceKind::kEdge, BalanceKind::kFull}) {
    balanced.push_back(f.is_balanced(kind));
  }
  EXPECT_EQ(balanced, reference.balanced);
}

template <int Dim>
using Lockstep = std::tuple<Forest<StandardRep<Dim>>, Forest<MortonRep<Dim>>,
                            Forest<AvxRep<Dim>>, Forest<WideMortonRep<Dim>>>;

/// Replays seed \p seed: \p steps generated steps on the four
/// representations, with the full comparison after each. Adds the number
/// of throwing refine and coarsen steps that threw to \p throws[0] and
/// \p throws[1].
template <int Dim>
void run_sequence(std::uint64_t seed, int steps, std::array<int, 2>& throws) {
  SCOPED_TRACE(::testing::Message() << Dim << "D seed " << seed);
  Xoshiro256 rng(seed);
  const auto below = [&rng](int n) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  Connectivity conn = Connectivity::unit(Dim);
  switch (below(3)) {
    case 1:
      conn = Dim == 2 ? Connectivity::brick2d(2 + below(2), 1 + below(2))
                      : Connectivity::brick3d(2, 1 + below(2), 1 + below(2));
      break;
    case 2:
      conn = Dim == 2 ? Connectivity::brick2d(1 + below(2), 1 + below(2),
                                              true, true)
                      : Connectivity::brick3d(1 + below(2), 1, 1 + below(2),
                                              true, true, true);
      break;
    default:
      break;
  }
  const int base = 1 + below(2);
  const int ranks = 1 + below(4);
  // Leaf budget: past it, refine steps turn into coarsen steps.
  const gidx_t budget = Dim == 2 ? 1200 : 2400;
  Lockstep<Dim> forests{
      Forest<StandardRep<Dim>>::new_uniform(conn, base, ranks),
      Forest<MortonRep<Dim>>::new_uniform(conn, base, ranks),
      Forest<AvxRep<Dim>>::new_uniform(conn, base, ranks),
      Forest<WideMortonRep<Dim>>::new_uniform(conn, base, ranks)};
  std::vector<VForest> vforests;
  for (const RepKind kind : {RepKind::kStandard, RepKind::kMorton,
                             RepKind::kAvx, RepKind::kWideMorton}) {
    vforests.push_back(VForest::new_uniform(kind, conn, base));
  }
  const auto coordinate = [&]() -> std::int64_t {
    if (rng.next_bool(0.5)) {
      return static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(kRoot)));
    }
    return std::min(kRoot - 1, below(5) * (kRoot / 4));
  };
  for (int k = 0; k < steps; ++k) {
    const auto& first = std::get<0>(forests);
    Step step;
    step.salt = rng.next_u64();
    switch (below(12)) {
      case 0:
      case 1:
      case 2:
        step.kind = first.num_quadrants() > budget ? Step::Kind::kCoarsen
                                                   : Step::Kind::kRefine;
        break;
      case 9:
        step.kind = first.num_quadrants() > budget ? Step::Kind::kCoarsen
                                                   : Step::Kind::kRefineThrow;
        break;
      case 10:
        step.kind = Step::Kind::kCoarsenThrow;
        break;
      case 3:
      case 4:
        step.kind = Step::Kind::kCoarsen;
        break;
      case 5:
      case 6:
        step.kind = Step::Kind::kBalance;
        break;
      case 7:
        step.kind = Step::Kind::kPartition;
        break;
      case 8:
        step.kind = Step::Kind::kWeighted;
        break;
      default:
        step.kind = Step::Kind::kRanks;
        break;
    }
    const bool throwing = step.kind == Step::Kind::kRefineThrow ||
                          step.kind == Step::Kind::kCoarsenThrow;
    const bool coarsen = step.kind == Step::Kind::kCoarsen ||
                         step.kind == Step::Kind::kCoarsenThrow;
    step.recursive = rng.next_bool(0.3) || throwing;
    // A throwing coarsen step accepts most families, so that its first
    // pass leaves complete families of new parents for later passes.
    step.percent = step.kind == Step::Kind::kCoarsenThrow ? 60 + below(40)
                   : coarsen        ? 20 + below(60)
                   : step.recursive ? 5 + below(10)
                                    : 10 + below(30);
    step.max_level = first.max_level_used() + 1;
    const bool refine = step.kind == Step::Kind::kRefine ||
                        step.kind == Step::Kind::kRefineThrow;
    if (refine && rng.next_bool(0.5)) {
      step.tree = static_cast<tree_id_t>(below(
          static_cast<int>(first.num_trees())));
      step.at[0] = coordinate();
      step.at[1] = coordinate();
      step.at[2] = Dim == 3 ? coordinate() : 0;
      step.depth = base + 2 + below(5);
    }
    const int balance_kind = below(3);
    step.balance = balance_kind == 0   ? BalanceKind::kFace
                   : balance_kind == 1 ? BalanceKind::kEdge
                                       : BalanceKind::kFull;
    step.ranks = 1 + below(7);
    std::vector<PointQuery> pts;
    for (int p = 0; p < 48; ++p) {
      PointQuery q;
      q.tree = static_cast<tree_id_t>(below(
          static_cast<int>(first.num_trees())));
      q.x = coordinate();
      q.y = coordinate();
      q.z = Dim == 3 ? coordinate() : 0;
      pts.push_back(q);
    }
    if (throwing) {
      for (tree_id_t t = 0; t < first.num_trees(); ++t) {
        for (const auto& q : first.tree_quadrants(t)) {
          const CanonicalQuadrant c = to_canonical<StandardRep<Dim>>(q);
          step.before.emplace(t, c.x, c.y, c.z, c.level);
        }
      }
    }
    SCOPED_TRACE(::testing::Message()
                 << "step " << k << " kind " << static_cast<int>(step.kind));
    // Whether the step threw: the four forests, then the VForests.
    std::vector<bool> threw;
    std::apply([&](auto&... f) { (threw.push_back(apply(f, step)), ...); },
               forests);
    std::apply([&](auto&... f) { (set_payloads(f, step.salt), ...); },
               forests);
    for (VForest& f : vforests) {
      threw.push_back(apply(f, step));
    }
    EXPECT_EQ(threw, std::vector<bool>(threw.size(), threw.front()));
    if (threw.front()) {
      ++throws[step.kind == Step::Kind::kCoarsenThrow ? 1 : 0];
    }
    const Snapshot reference =
        snapshot(std::get<0>(forests), pts, step.salt, true);
    ASSERT_TRUE(reference.valid);
    std::apply(
        [&](const auto&... f) {
          (expect_same(snapshot(f, pts, step.salt, false), reference,
                       std::remove_cvref_t<decltype(f)>::rep::name),
           ...);
        },
        forests);
    for (const VForest& f : vforests) {
      expect_same(f, pts, reference);
    }
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(Sequences, Lockstep2D) {
  std::array<int, 2> throws{};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_sequence<2>(seed, 16, throws);
  }
  EXPECT_GT(throws[0], 0);
  EXPECT_GT(throws[1], 0);
}

TEST(Sequences, Lockstep3D) {
  std::array<int, 2> throws{};
  for (std::uint64_t seed = 101; seed <= 110; ++seed) {
    run_sequence<3>(seed, 12, throws);
  }
  EXPECT_GT(throws[0], 0);
  EXPECT_GT(throws[1], 0);
}

}  // namespace
}  // namespace qforest
