#pragma once
/// \file forest_oracle.hpp
/// \brief Per-quadrant reference implementations of the Forest algorithms
/// that run on the neighbor-key sweep: balance, is_balanced, the ghost
/// layer, mirrors, face iteration and point search. Each works one leaf
/// and one neighbor at a time through the public Forest API only
/// (neighbor_at_offset, find_enclosing_leaf, tree_quadrants,
/// replace_leaves, rank_range, locate, global_index), with scalar quadrant
/// ops and no thread pool, so the parity tests and the ablation benches
/// compare the library against an independent, obviously-correct
/// algorithm.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/canonical.hpp"
#include "forest/forest.hpp"
#include "forest/point_query.hpp"

namespace qforest::oracle {

/// Displacements (in quadrant lengths) of the neighbor relations
/// \p kind covers.
inline std::vector<std::array<int, 3>> neighbor_offsets(int dim,
                                                        BalanceKind kind) {
  const int max_axes = kind == BalanceKind::kFace   ? 1
                       : kind == BalanceKind::kEdge ? (dim == 3 ? 2 : 1)
                                                    : 3;
  std::vector<std::array<int, 3>> out;
  for (int dz = dim == 3 ? -1 : 0; dz <= (dim == 3 ? 1 : 0); ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int axes = (dx != 0) + (dy != 0) + (dz != 0);
        if (axes > 0 && axes <= max_axes) {
          out.push_back({dx, dy, dz});
        }
      }
    }
  }
  return out;
}

/// Balance marks: split[t][i] = 1 for every leaf two or more levels
/// coarser than a same-level neighbor of some leaf under \p kind — one
/// neighbor_at_offset + find_enclosing_leaf per (leaf, offset) pair.
template <class R>
std::vector<std::vector<std::uint8_t>> mark_splits(const Forest<R>& f,
                                                   BalanceKind kind) {
  const auto offsets = neighbor_offsets(R::dim, kind);
  std::vector<std::vector<std::uint8_t>> split(
      static_cast<std::size_t>(f.num_trees()));
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    split[static_cast<std::size_t>(t)].assign(f.tree_quadrants(t).size(), 0);
  }
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    for (const auto& q : f.tree_quadrants(t)) {
      const int lvl = R::level(q);
      if (lvl < 2) {
        continue;  // neighbors can never be two levels coarser
      }
      for (const auto& d : offsets) {
        const auto nb = f.neighbor_at_offset(t, q, d[0], d[1], d[2]);
        if (!nb.has_value()) {
          continue;  // physical boundary
        }
        const auto enclosing = f.find_enclosing_leaf(nb->tree, nb->quad);
        if (enclosing.has_value() &&
            R::level(f.tree_quadrants(nb->tree)[*enclosing]) < lvl - 1) {
          split[static_cast<std::size_t>(nb->tree)][*enclosing] = 1;
        }
      }
    }
  }
  return split;
}

template <class R>
bool is_balanced(const Forest<R>& f, BalanceKind kind) {
  for (const auto& marks : mark_splits(f, kind)) {
    if (std::find(marks.begin(), marks.end(), 1) != marks.end()) {
      return false;
    }
  }
  return true;
}

/// Iterated mark-all / split-all until no leaf is marked; children inherit
/// the parent's payload. Leaves an already-balanced forest untouched (no
/// replace_leaves, hence no repartition), like Forest::balance. Returns
/// the number of mark passes, the last one (which marks nothing)
/// included — Forest::balance's forest.balance.iterations count.
template <class R>
int balance(Forest<R>& f, BalanceKind kind) {
  constexpr int nc = DimConstants<R::dim>::num_children;
  for (int passes = 1;; ++passes) {
    const auto split = mark_splits(f, kind);
    bool any = false;
    std::vector<std::vector<typename R::quad_t>> trees;
    std::vector<std::vector<std::uint64_t>> pays;
    for (tree_id_t t = 0; t < f.num_trees(); ++t) {
      const auto& marks = split[static_cast<std::size_t>(t)];
      const auto& leaves = f.tree_quadrants(t);
      auto& out = trees.emplace_back();
      auto& pay = pays.emplace_back();
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        const std::uint64_t p = f.payload_enabled() ? f.tree_payloads(t)[i] : 0;
        const int copies = marks[i] ? nc : 1;
        for (int c = 0; c < copies; ++c) {
          out.push_back(marks[i] ? R::child(leaves[i], c) : leaves[i]);
          pay.push_back(p);
        }
        any |= marks[i] != 0;
      }
    }
    if (!any) {
      return passes;
    }
    f.replace_leaves(std::move(trees));
    if (f.payload_enabled()) {
      for (tree_id_t t = 0; t < f.num_trees(); ++t) {
        for (std::size_t i = 0; i < f.tree_quadrants(t).size(); ++i) {
          f.payload(t, i) = pays[static_cast<std::size_t>(t)][i];
        }
      }
    }
  }
}

/// Whether two canonical domains (in one frame) share at least a point.
template <class R>
bool touch(const CanonicalQuadrant& a, const CanonicalQuadrant& b) {
  const std::int64_t ha = std::int64_t{1} << (kCanonicalLevel - a.level);
  const std::int64_t hb = std::int64_t{1} << (kCanonicalLevel - b.level);
  const std::int64_t pa[3] = {a.x, a.y, a.z};
  const std::int64_t pb[3] = {b.x, b.y, b.z};
  for (int i = 0; i < R::dim; ++i) {
    if (pa[i] + ha < pb[i] || pb[i] + hb < pa[i]) {
      return false;
    }
  }
  return true;
}

/// Call \p fn(leaf_index) for every leaf of the neighbor's tree that
/// touches (\p t, \p ref) within the same-level neighbor region: the
/// enclosing leaf if there is one, else the touching part of the finer
/// run that covers the region.
template <class R, class Fn>
void for_each_touching_leaf(const Forest<R>& f,
                            const typename Forest<R>::NeighborLookup& nb,
                            tree_id_t t, const typename R::quad_t& ref,
                            Fn&& fn) {
  const auto enclosing = f.find_enclosing_leaf(nb.tree, nb.quad);
  if (enclosing.has_value()) {
    fn(*enclosing);
    return;
  }
  // Translate the reference into the neighbor tree's frame so the touch
  // test works across tree faces too.
  const auto& tree = f.tree_quadrants(nb.tree);
  CanonicalQuadrant cref = to_canonical<R>(ref);
  const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
  cref.x -= nb.tree_step[0] * root;
  cref.y -= nb.tree_step[1] * root;
  cref.z -= nb.tree_step[2] * root;
  for (auto cur = std::lower_bound(tree.begin(), tree.end(), nb.quad,
                                   RepLess<R>{});
       cur != tree.end() && R::is_ancestor(nb.quad, *cur); ++cur) {
    if ((nb.tree != t || !R::equal(*cur, ref)) &&
        touch<R>(to_canonical<R>(*cur), cref)) {
      fn(static_cast<std::size_t>(cur - tree.begin()));
    }
  }
}

/// Sorted, deduplicated out-of-range leaves touching the leaves of
/// [first, last) (\p sources false), or the in-range leaves touching an
/// out-of-range one (\p sources true).
template <class R>
std::vector<gidx_t> adjacency_scan(const Forest<R>& f, gidx_t first,
                                   gidx_t last, bool sources) {
  const auto offsets = neighbor_offsets(R::dim, BalanceKind::kFull);
  std::vector<gidx_t> seen;
  for (gidx_t g = first; g < last; ++g) {
    const auto [t, i] = f.locate(g);
    const auto& q = f.tree_quadrants(t)[i];
    for (const auto& d : offsets) {
      const auto nb = f.neighbor_at_offset(t, q, d[0], d[1], d[2]);
      if (!nb.has_value()) {
        continue;
      }
      for_each_touching_leaf(f, *nb, t, q, [&](std::size_t leaf) {
        const gidx_t lg = f.global_index(nb->tree, leaf);
        if (lg < first || lg >= last) {
          seen.push_back(sources ? g : lg);
        }
      });
    }
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return seen;
}

template <class R>
GhostLayer<R> ghost_layer(const Forest<R>& f, int rank) {
  const auto [first, last] = f.rank_range(rank);
  GhostLayer<R> ghost;
  for (const gidx_t g : adjacency_scan(f, first, last, false)) {
    const auto [t, i] = f.locate(g);
    ghost.entries.push_back({t, f.tree_quadrants(t)[i], f.owner_rank(g), g});
  }
  return ghost;
}

template <class R>
std::vector<gidx_t> mirrors(const Forest<R>& f, int rank) {
  const auto [first, last] = f.rank_range(rank);
  return adjacency_scan(f, first, last, true);
}

/// Serial face iteration in leaf order: every leaf probes its 2*dim face
/// neighbors; hanging pairs are emitted from the finer side, equal-size
/// pairs from the globally lower leaf, domain-boundary faces once.
template <class R, class Fn>
void iterate_faces(const Forest<R>& f, Fn&& cb) {
  constexpr int num_faces = DimConstants<R::dim>::num_faces;
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    const auto& tree = f.tree_quadrants(t);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      for (int face = 0; face < num_faces; ++face) {
        FaceInfo<R> info;
        info.tree[0] = t;
        info.quad[0] = tree[i];
        info.leaf_index[0] = i;
        info.face[0] = face;
        std::array<int, 3> d = {0, 0, 0};
        d[static_cast<std::size_t>(face >> 1)] = (face & 1) ? 1 : -1;
        const auto nb = f.neighbor_at_offset(t, tree[i], d[0], d[1], d[2]);
        if (!nb.has_value()) {
          info.is_boundary = true;
          cb(info);
          continue;
        }
        const auto enclosing = f.find_enclosing_leaf(nb->tree, nb->quad);
        if (!enclosing.has_value()) {
          continue;  // neighbor region finer: those leaves emit toward us
        }
        const auto& leaf = f.tree_quadrants(nb->tree)[*enclosing];
        if (R::level(leaf) == R::level(tree[i])) {
          if (f.global_index(t, i) > f.global_index(nb->tree, *enclosing)) {
            continue;  // equal-size pair: the lower side emits
          }
        } else {
          info.is_hanging = true;  // an enclosing leaf is never finer
        }
        info.tree[1] = nb->tree;
        info.quad[1] = leaf;
        info.leaf_index[1] = *enclosing;
        info.face[1] = face ^ 1;
        cb(info);
      }
    }
  }
}

/// Point location one query at a time: the containing leaf is the last
/// leaf <= the point's max_level key (one upper_bound per query).
template <class R>
std::vector<gidx_t> search_points(const Forest<R>& f,
                                  const std::vector<PointQuery>& queries) {
  const std::int64_t mask =
      ~((std::int64_t{1} << (kCanonicalLevel - R::max_level)) - 1);
  std::vector<gidx_t> out;
  out.reserve(queries.size());
  for (const PointQuery& p : queries) {
    const auto key = from_canonical<R>(
        CanonicalQuadrant{p.x & mask, p.y & mask, p.z & mask, R::max_level});
    const auto& tree = f.tree_quadrants(p.tree);
    const auto it = std::upper_bound(tree.begin(), tree.end(), key,
                                     RepLess<R>{});
    assert(it != tree.begin());
    out.push_back(f.global_index(
        p.tree, static_cast<std::size_t>(it - tree.begin()) - 1));
  }
  return out;
}

}  // namespace qforest::oracle
