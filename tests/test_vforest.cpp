/// \file test_vforest.cpp
/// \brief The runtime-representation forest must reproduce the template
/// forest's meshes exactly, for every representation kind.

#include <atomic>

#include <gtest/gtest.h>

#include "core/algorithms.hpp"
#include "forest/forest.hpp"
#include "forest/vforest.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

const RepKind kAllKinds[] = {RepKind::kStandard, RepKind::kMorton,
                             RepKind::kAvx, RepKind::kWideMorton};

/// Canonical fingerprint of a VForest tree.
std::vector<CanonicalQuadrant> fingerprint(const VForest& f, tree_id_t t) {
  std::vector<CanonicalQuadrant> out;
  for (const VQuad& q : f.tree_quadrants(t)) {
    out.push_back(f.ops().canonical(q));
  }
  return out;
}

/// Canonical fingerprint of a template forest tree.
template <class R>
std::vector<CanonicalQuadrant> fingerprint(const Forest<R>& f, tree_id_t t) {
  std::vector<CanonicalQuadrant> out;
  for (const auto& q : f.tree_quadrants(t)) {
    out.push_back(to_canonical<R>(q));
  }
  return out;
}

TEST(VForest, UniformCreationAllKinds) {
  for (const RepKind kind : kAllKinds) {
    for (int dim : {2, 3}) {
      const auto f = VForest::new_uniform(kind, Connectivity::unit(dim), 2);
      EXPECT_EQ(f.num_quadrants(), std::int64_t{1} << (dim * 2));
      EXPECT_TRUE(f.is_valid()) << rep_kind_name(kind) << " dim " << dim;
      EXPECT_EQ(f.max_level_used(), 2);
    }
  }
}

TEST(VForest, RefineMatchesTemplateForest) {
  // The same refinement driven through the virtual interface and through
  // the template forest produces canonically identical meshes.
  auto criterion_level_index = [](int lvl, morton_t idx) {
    return lvl < 5 && idx % 5 == 0;
  };

  auto tf = Forest<MortonRep<3>>::new_uniform(Connectivity::unit(3), 2);
  tf.refine(true, [&](tree_id_t, const MortonRep<3>::quad_t& q) {
    return criterion_level_index(MortonRep<3>::level(q),
                                 MortonRep<3>::level_index(q));
  });

  for (const RepKind kind : kAllKinds) {
    auto vf = VForest::new_uniform(kind, Connectivity::unit(3), 2);
    const auto& ops = vf.ops();
    vf.refine(true, [&](tree_id_t, const VQuad& q) {
      return criterion_level_index(ops.level(q), ops.level_index(q));
    });
    EXPECT_TRUE(vf.is_valid());
    EXPECT_EQ(vf.num_quadrants(), tf.num_quadrants())
        << rep_kind_name(kind);
    EXPECT_EQ(fingerprint(vf, 0), fingerprint(tf, 0)) << rep_kind_name(kind);
  }
}

TEST(VForest, CoarsenInvertsRefine) {
  for (const RepKind kind : kAllKinds) {
    auto f = VForest::new_uniform(kind, Connectivity::unit(2), 3);
    const auto& ops = f.ops();
    const std::int64_t before = f.num_quadrants();
    f.refine(false, [](tree_id_t, const VQuad&) { return true; });
    EXPECT_EQ(f.num_quadrants(), before * 4);
    // Every member of a family the callback sees has the same parent.
    std::atomic<int> split_families{0};
    f.coarsen(false, [&](tree_id_t, const VQuad* fam) {
      for (int c = 1; c < 4; ++c) {
        if (!ops.equal(ops.parent(fam[c]), ops.parent(fam[0]))) {
          split_families.fetch_add(1);
        }
      }
      return true;
    });
    EXPECT_EQ(split_families.load(), 0) << rep_kind_name(kind);
    EXPECT_EQ(f.num_quadrants(), before);
    EXPECT_TRUE(f.is_valid());
  }
}

TEST(VForest, BalanceMatchesTemplateForest) {
  auto chain = [](int l, morton_t idx) {
    const morton_t want = l == 0 ? 0 : (morton_t{1} << (3 * (l - 1))) - 1;
    return l < 5 && idx == want;
  };

  auto tf = Forest<StandardRep<3>>::new_root(Connectivity::unit(3));
  tf.refine(true, [&](tree_id_t, const StandardRep<3>::quad_t& q) {
    return chain(StandardRep<3>::level(q),
                 StandardRep<3>::level_index(q));
  });
  tf.balance(BalanceKind::kFull);

  for (const RepKind kind : kAllKinds) {
    auto vf = VForest::new_root(kind, Connectivity::unit(3));
    const auto& ops = vf.ops();
    vf.refine(true, [&](tree_id_t, const VQuad& q) {
      return chain(ops.level(q), ops.level_index(q));
    });
    EXPECT_FALSE(vf.is_balanced()) << rep_kind_name(kind);
    vf.balance();
    EXPECT_TRUE(vf.is_balanced()) << rep_kind_name(kind);
    EXPECT_EQ(vf.num_quadrants(), tf.num_quadrants()) << rep_kind_name(kind);
    EXPECT_EQ(fingerprint(vf, 0), fingerprint(tf, 0)) << rep_kind_name(kind);
  }
}

TEST(VForest, SearchCountsLeaves) {
  auto f = VForest::new_uniform(RepKind::kAvx, Connectivity::unit(3), 2);
  const auto& ops = f.ops();
  f.refine(false, [&](tree_id_t, const VQuad& q) {
    return ops.level_index(q) % 2 == 0;
  });
  std::size_t leaves = 0;
  f.search([&](tree_id_t, const VQuad&, std::size_t, std::size_t,
               bool is_leaf) {
    leaves += is_leaf ? 1 : 0;
    return true;
  });
  EXPECT_EQ(leaves, static_cast<std::size_t>(f.num_quadrants()));
}

TEST(VForest, MultiTreeBrickBalanceAcrossTrees) {
  auto f = VForest::new_uniform(RepKind::kMorton,
                                Connectivity::brick2d(2, 1), 1);
  const auto& ops = f.ops();
  // Deep refinement on the +x face of tree 0.
  f.refine(true, [&](tree_id_t t, const VQuad& q) {
    if (t != 0 || ops.level(q) >= 5) {
      return false;
    }
    const CanonicalQuadrant c = ops.canonical(q);
    const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
    const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - c.level);
    return c.y == 0 && c.x + h == root;
  });
  f.balance();
  EXPECT_TRUE(f.is_balanced());
  EXPECT_TRUE(f.is_valid());
  EXPECT_GT(f.tree_quadrants(1).size(), 4u);
}

TEST(VForest, InvalidLevelThrows) {
  EXPECT_THROW(VForest::new_uniform(RepKind::kMorton,
                                    Connectivity::unit(3), 19),
               std::invalid_argument);
  EXPECT_NO_THROW(
      VForest::new_uniform(RepKind::kStandard, Connectivity::unit(3), 3));
}

}  // namespace
}  // namespace qforest
