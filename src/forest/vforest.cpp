#include "forest/vforest.hpp"

#include <array>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace qforest {

namespace {

/// The boxing adapter of the representation a forest reference holds.
template <class F>
using AdapterOf = VirtualOpsAdapter<typename std::remove_cvref_t<F>::rep>;

/// The 2D or 3D forest of representation family \p Rep, by the
/// connectivity's dimension.
template <template <int> class Rep, class Forests>
Forests make_forest(Connectivity conn, int level) {
  if (conn.dim() == 3) {
    return Forest<Rep<3>>::new_uniform(std::move(conn), level);
  }
  return Forest<Rep<2>>::new_uniform(std::move(conn), level);
}

}  // namespace

VForest::VForest(RepKind kind, Forests forest)
    : kind_(kind),
      ops_(&virtual_ops(kind, std::visit([](const auto& f) { return f.dim; },
                                         forest))),
      forest_(std::move(forest)) {}

VForest VForest::new_uniform(RepKind kind, Connectivity conn, int level) {
  switch (kind) {
    case RepKind::kStandard:
      return {kind, make_forest<StandardRep, Forests>(std::move(conn), level)};
    case RepKind::kMorton:
      return {kind, make_forest<MortonRep, Forests>(std::move(conn), level)};
    case RepKind::kAvx:
      return {kind, make_forest<AvxRep, Forests>(std::move(conn), level)};
    case RepKind::kWideMorton:
      return {kind,
              make_forest<WideMortonRep, Forests>(std::move(conn), level)};
  }
  throw std::invalid_argument("VForest: unknown representation kind");
}

const Connectivity& VForest::connectivity() const {
  return std::visit(
      [](const auto& f) -> const Connectivity& { return f.connectivity(); },
      forest_);
}

tree_id_t VForest::num_trees() const {
  return std::visit([](const auto& f) { return f.num_trees(); }, forest_);
}

std::int64_t VForest::num_quadrants() const {
  return std::visit([](const auto& f) { return f.num_quadrants(); }, forest_);
}

std::vector<VQuad> VForest::tree_quadrants(tree_id_t t) const {
  return std::visit(
      [t](const auto& f) {
        const auto& leaves = f.tree_quadrants(t);
        std::vector<VQuad> out;
        out.reserve(leaves.size());
        for (const auto& q : leaves) {
          out.push_back(AdapterOf<decltype(f)>::box(q));
        }
        return out;
      },
      forest_);
}

int VForest::max_level_used() const {
  return std::visit([](const auto& f) { return f.max_level_used(); }, forest_);
}

void VForest::refine(bool recursive, const refine_fn& should_refine) {
  std::visit(
      [&](auto& f) {
        f.refine(recursive, [&](tree_id_t t, const auto& q) {
          return should_refine(t, AdapterOf<decltype(f)>::box(q));
        });
      },
      forest_);
}

void VForest::coarsen(bool recursive, const coarsen_fn& should_coarsen) {
  std::visit(
      [&](auto& f) {
        using F = std::remove_cvref_t<decltype(f)>;
        f.coarsen(recursive, [&](tree_id_t t, const typename F::quad_t* fam) {
          std::array<VQuad, std::size_t{1} << F::dim> boxed;
          for (std::size_t c = 0; c < boxed.size(); ++c) {
            boxed[c] = AdapterOf<F>::box(fam[c]);
          }
          return should_coarsen(t, boxed.data());
        });
      },
      forest_);
}

void VForest::balance(BalanceKind kind) {
  std::visit([kind](auto& f) { f.balance(kind); }, forest_);
}

bool VForest::is_balanced(BalanceKind kind) const {
  return std::visit([kind](const auto& f) { return f.is_balanced(kind); },
                    forest_);
}

void VForest::search(const search_fn& cb) const {
  std::visit(
      [&](const auto& f) {
        f.search([&](tree_id_t t, const auto& anc, std::size_t first,
                     std::size_t last, bool is_leaf) {
          return cb(t, AdapterOf<decltype(f)>::box(anc), first, last,
                    is_leaf);
        });
      },
      forest_);
}

std::vector<std::int64_t> VForest::search_points(
    const std::vector<PointQuery>& queries) const {
  return std::visit(
      [&](const auto& f) { return f.search_points(queries); }, forest_);
}

bool VForest::is_valid() const {
  return std::visit([](const auto& f) { return f.is_valid(); }, forest_);
}

}  // namespace qforest
