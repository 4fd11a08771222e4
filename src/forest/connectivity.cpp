#include "forest/connectivity.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace qforest {

Connectivity::Connectivity(int dim, std::array<int, 3> extent,
                           std::array<bool, 3> periodic)
    : dim_(dim), extent_(extent), periodic_(periodic) {
  if (dim != 2 && dim != 3) {
    throw std::invalid_argument("Connectivity: dim must be 2 or 3");
  }
  for (int a = 0; a < 3; ++a) {
    if (extent_[a] < 1) {
      throw std::invalid_argument("Connectivity: extents must be positive");
    }
  }
  if (dim == 2 && extent_[2] != 1) {
    throw std::invalid_argument("Connectivity: 2D brick must have nz == 1");
  }
  // Two steps: once nx * ny fits tree_id_t, times nz fits int64.
  constexpr std::int64_t kMaxTrees = std::numeric_limits<tree_id_t>::max();
  const std::int64_t xy = std::int64_t{extent_[0]} * extent_[1];
  if (xy > kMaxTrees || xy * extent_[2] > kMaxTrees) {
    throw std::invalid_argument("Connectivity: too many trees");
  }
}

Connectivity Connectivity::unit(int dim) {
  return Connectivity(dim, {1, 1, 1}, {false, false, false});
}

Connectivity Connectivity::brick2d(int nx, int ny, bool periodic_x,
                                   bool periodic_y) {
  return Connectivity(2, {nx, ny, 1}, {periodic_x, periodic_y, false});
}

Connectivity Connectivity::brick3d(int nx, int ny, int nz, bool periodic_x,
                                   bool periodic_y, bool periodic_z) {
  return Connectivity(3, {nx, ny, nz}, {periodic_x, periodic_y, periodic_z});
}

std::array<int, 3> Connectivity::tree_coords(tree_id_t t) const {
  assert(t >= 0 && t < num_trees());
  std::array<int, 3> c{};
  c[0] = static_cast<int>(t % extent_[0]);
  c[1] = static_cast<int>((t / extent_[0]) % extent_[1]);
  c[2] = static_cast<int>(t / (static_cast<std::int64_t>(extent_[0]) *
                               extent_[1]));
  return c;
}

tree_id_t Connectivity::tree_at(int x, int y, int z) const {
  int pos[3] = {x, y, z};
  for (int a = 0; a < 3; ++a) {
    if (pos[a] < 0 || pos[a] >= extent_[a]) {
      if (!periodic_[a]) {
        return -1;
      }
      pos[a] = ((pos[a] % extent_[a]) + extent_[a]) % extent_[a];
    }
  }
  return static_cast<tree_id_t>(
      pos[0] + static_cast<std::int64_t>(extent_[0]) *
                   (pos[1] + static_cast<std::int64_t>(extent_[1]) * pos[2]));
}

Connectivity::FaceLink Connectivity::tree_face_neighbor(tree_id_t t,
                                                        int f) const {
  assert(f >= 0 && f < 2 * dim_);
  auto c = tree_coords(t);
  const int axis = f >> 1;
  c[axis] += (f & 1) ? 1 : -1;
  FaceLink link;
  link.tree = tree_at(c[0], c[1], c[2]);
  // Axis-aligned bricks connect through the opposite face, no rotation.
  link.face = link.tree < 0 ? -1 : (f ^ 1);
  return link;
}

tree_id_t Connectivity::tree_offset_neighbor(tree_id_t t, int dx, int dy,
                                             int dz) const {
  const auto c = tree_coords(t);
  return tree_at(c[0] + dx, c[1] + dy, c[2] + dz);
}

bool Connectivity::is_valid() const {
  if (dim_ != 2 && dim_ != 3) {
    return false;
  }
  for (int a = 0; a < dim_; ++a) {
    if (extent_[a] < 1) {
      return false;
    }
  }
  // Face links must be symmetric: crossing back returns to the start.
  for (tree_id_t t = 0; t < num_trees(); ++t) {
    for (int f = 0; f < 2 * dim_; ++f) {
      const FaceLink link = tree_face_neighbor(t, f);
      if (link.is_boundary()) {
        continue;
      }
      const FaceLink back = tree_face_neighbor(link.tree, link.face);
      if (back.tree != t || back.face != f) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace qforest
