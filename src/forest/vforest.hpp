#pragma once
/// \file vforest.hpp
/// \brief VForest: a Forest<R> whose quadrant representation and dimension
/// are chosen at run time.
///
/// The paper's conclusion describes "a new branch of high-level algorithms
/// that operate on virtualized quadrants" so the representation becomes a
/// run-time choice (configuration file, CLI flag) instead of a template
/// parameter. VForest makes that choice without a second set of
/// algorithms: it holds one of the eight Forest<R> instantiations (four
/// representations x two dimensions) in a std::variant and forwards every
/// call to it, so refine, coarsen, balance, search and the checks are the
/// template forest's own, batch kernels and chunk scheduling included.
/// Only the callbacks cross the boundary: they receive quadrants boxed
/// into VQuad (VirtualOpsAdapter<R>::box), which ops() interprets.
///
/// Differences from Forest<R>:
/// - tree_quadrants(t) returns a boxed copy of the tree's leaves by value;
///   the forest stores the representation's own quadrant type.
/// - A coarsen callback receives a pointer to a boxed copy of the family
///   (2^dim VQuads), valid only for the duration of the call.
///
/// Refine and coarsen callbacks follow the Forest<R> concurrency contract:
/// they must be safe to invoke concurrently for different trees and for
/// different leaf chunks of one tree (set_tree_parallelism(false) opts
/// out). The search callback runs serially.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <variant>
#include <vector>

#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "core/virtual_ops.hpp"
#include "forest/forest.hpp"

namespace qforest {

/// Forest of octrees with a run-time-selected quadrant representation.
class VForest {
 public:
  using refine_fn = std::function<bool(tree_id_t, const VQuad&)>;
  using coarsen_fn = std::function<bool(tree_id_t, const VQuad*)>;
  /// search callback: (tree, ancestor, first, last, is_leaf) -> descend?
  using search_fn = std::function<bool(tree_id_t, const VQuad&, std::size_t,
                                       std::size_t, bool)>;

  /// Uniformly refined forest with representation \p kind; the dimension
  /// is the connectivity's.
  static VForest new_uniform(RepKind kind, Connectivity conn, int level);

  /// Root-only forest.
  static VForest new_root(RepKind kind, Connectivity conn) {
    return new_uniform(kind, std::move(conn), 0);
  }

  [[nodiscard]] const VirtualQuadrantOps& ops() const { return *ops_; }
  [[nodiscard]] RepKind kind() const { return kind_; }
  [[nodiscard]] const Connectivity& connectivity() const;
  [[nodiscard]] tree_id_t num_trees() const;
  [[nodiscard]] std::int64_t num_quadrants() const;
  /// Boxed copy of the leaves of tree \p t in curve order.
  [[nodiscard]] std::vector<VQuad> tree_quadrants(tree_id_t t) const;
  [[nodiscard]] int max_level_used() const;

  /// Forest<R>::refine: p4est-style refinement; recursive re-examines
  /// children.
  void refine(bool recursive, const refine_fn& should_refine);

  /// Forest<R>::coarsen: replace accepted complete families by their
  /// parent.
  void coarsen(bool recursive, const coarsen_fn& should_coarsen);

  /// Forest<R>::balance: enforce the 2:1 condition across \p kind.
  void balance(BalanceKind kind = BalanceKind::kFull);

  /// Forest<R>::is_balanced: check the 2:1 condition across \p kind.
  [[nodiscard]] bool is_balanced(BalanceKind kind = BalanceKind::kFull) const;

  /// Forest<R>::search: top-down traversal with pruning.
  void search(const search_fn& cb) const;

  /// Forest<R>::search_points: the global index of the leaf containing
  /// each canonical query point (see point_query.hpp), in input order.
  /// Throws std::invalid_argument when a query lies outside the domain.
  [[nodiscard]] std::vector<std::int64_t> search_points(
      const std::vector<PointQuery>& queries) const;

  /// Forest<R>::is_valid: sortedness, no overlap, completeness.
  [[nodiscard]] bool is_valid() const;

 private:
  using Forests =
      std::variant<Forest<StandardRep<2>>, Forest<StandardRep<3>>,
                   Forest<MortonRep<2>>, Forest<MortonRep<3>>,
                   Forest<AvxRep<2>>, Forest<AvxRep<3>>,
                   Forest<WideMortonRep<2>>, Forest<WideMortonRep<3>>>;

  VForest(RepKind kind, Forests forest);

  RepKind kind_;
  const VirtualQuadrantOps* ops_;
  Forests forest_;
};

}  // namespace qforest
