#pragma once
/// \file canonical.hpp
/// \brief Representation-independent canonical quadrant form + conversions.
///
/// Each representation scales coordinates to its own maximum level L
/// (R::max_level: standard 29, Morton 18/28 in 3D/2D, AVX 30, wide-Morton
/// 40/60), set by how many coordinate or index bits its encoding keeps.
/// The canonical form rescales all of them to one fixed 2^60 grid so
/// quadrants from different encodings can be compared, converted, and
/// property-tested for logical equivalence: two quadrants are *the same*
/// mesh primitive iff their canonical forms are equal.

#include <cassert>
#include <cstdint>

#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "core/rep_traits.hpp"

namespace qforest {

/// Grid exponent of the canonical coordinate space; 60 = max over all
/// shipped representations (WideMortonRep 2D).
inline constexpr int kCanonicalLevel = 60;

/// Representation-independent quadrant: coordinates on the 2^60 grid.
struct CanonicalQuadrant {
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::int64_t z = 0;
  int level = 0;

  friend bool operator==(const CanonicalQuadrant&,
                         const CanonicalQuadrant&) = default;
};

namespace detail {

/// Wide-coordinate extraction: representations whose coordinates exceed
/// 32 bits provide to_wide_coords; the rest use the 32-bit interface.
template <class R>
concept HasWideCoords = requires(const typename R::quad_t q,
                                 typename R::wide_coord_t& w, int& l) {
  { R::to_wide_coords(q, w, w, w, l) };
};

}  // namespace detail

/// Convert any representation's quadrant to canonical form.
template <class R>
CanonicalQuadrant to_canonical(const typename R::quad_t& q) {
  CanonicalQuadrant c;
  const int up = kCanonicalLevel - R::max_level;
  if constexpr (detail::HasWideCoords<R>) {
    typename R::wide_coord_t x, y, z;
    R::to_wide_coords(q, x, y, z, c.level);
    c.x = static_cast<std::int64_t>(x) << up;
    c.y = static_cast<std::int64_t>(y) << up;
    c.z = static_cast<std::int64_t>(z) << up;
  } else {
    coord_t x, y, z;
    R::to_coords(q, x, y, z, c.level);
    c.x = static_cast<std::int64_t>(x) << up;
    c.y = static_cast<std::int64_t>(y) << up;
    c.z = static_cast<std::int64_t>(z) << up;
  }
  return c;
}

/// Convert a canonical quadrant into representation \p R.
/// Precondition: the canonical coordinates are representable, i.e. aligned
/// to R's grid (level <= R::max_level and low bits zero).
template <class R>
typename R::quad_t from_canonical(const CanonicalQuadrant& c) {
  assert(c.level <= R::max_level);
  const int down = kCanonicalLevel - R::max_level;
  assert((c.x & ((std::int64_t{1} << down) - 1)) == 0);
  if constexpr (detail::HasWideCoords<R>) {
    return R::from_wide_coords(c.x >> down, c.y >> down, c.z >> down,
                               c.level);
  } else {
    return R::from_coords(static_cast<coord_t>(c.x >> down),
                          static_cast<coord_t>(c.y >> down),
                          static_cast<coord_t>(c.z >> down), c.level);
  }
}

/// Re-encode a quadrant from representation \p From to representation
/// \p To. Precondition: level(q) <= To::max_level.
template <class From, class To>
typename To::quad_t convert(const typename From::quad_t& q) {
  return from_canonical<To>(to_canonical<From>(q));
}

}  // namespace qforest
