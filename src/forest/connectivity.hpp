#pragma once
/// \file connectivity.hpp
/// \brief Inter-tree connectivity: how unit trees tile the domain.
///
/// p4est meshes general geometries by connecting many logically cubic
/// trees into a forest. This library implements the axis-aligned *brick*
/// family (an nx x ny [x nz] grid of trees with optional periodicity per
/// axis), which covers the unit cube, rectangular channels, periodic tori
/// and every workload used in the paper and in our examples. Face
/// connections carry no rotation: the neighbor across face f adjoins
/// through its face f^1 with identity orientation. p4est's general
/// corner/orientation codes are out of scope: no workload here needs a
/// rotated tree, and every brick face pairs f with f^1.

#include <array>
#include <cstdint>
#include <vector>

namespace qforest {

/// Identifier of a tree within the forest.
using tree_id_t = std::int32_t;

/// Axis-aligned brick connectivity of unit trees.
class Connectivity {
 public:
  /// Result of crossing a tree face: the neighbor tree (or -1 at a
  /// physical boundary) and the neighbor's adjoining face.
  struct FaceLink {
    tree_id_t tree = -1;
    int face = -1;

    [[nodiscard]] bool is_boundary() const { return tree < 0; }
  };

  /// Single unit tree (the unit square / cube), no periodicity.
  static Connectivity unit(int dim);

  /// nx x ny grid of trees; \p periodic_x/y wrap the respective axis.
  static Connectivity brick2d(int nx, int ny, bool periodic_x = false,
                              bool periodic_y = false);

  /// nx x ny x nz grid of trees with optional periodicity per axis.
  static Connectivity brick3d(int nx, int ny, int nz, bool periodic_x = false,
                              bool periodic_y = false,
                              bool periodic_z = false);

  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] tree_id_t num_trees() const {
    return static_cast<tree_id_t>(extent_[0]) * extent_[1] * extent_[2];
  }

  /// Brick extent along \p axis (number of trees).
  [[nodiscard]] int extent(int axis) const { return extent_[axis]; }

  /// Whether \p axis wraps periodically.
  [[nodiscard]] bool periodic(int axis) const { return periodic_[axis]; }

  /// Grid position of tree \p t within the brick.
  [[nodiscard]] std::array<int, 3> tree_coords(tree_id_t t) const;

  /// Tree at brick position (x,y,z); applies periodic wrap; -1 outside.
  [[nodiscard]] tree_id_t tree_at(int x, int y, int z) const;

  /// Neighbor tree across face \p f of tree \p t (p4est face order
  /// -x,+x,-y,+y,-z,+z).
  [[nodiscard]] FaceLink tree_face_neighbor(tree_id_t t, int f) const;

  /// Neighbor tree across a general axis offset (dx,dy,dz in {-1,0,1}),
  /// used for corner/edge ghost exchange. Returns -1 when any non-periodic
  /// axis leaves the brick.
  [[nodiscard]] tree_id_t tree_offset_neighbor(tree_id_t t, int dx, int dy,
                                               int dz) const;

  /// Structural soundness: extents positive, face links symmetric.
  [[nodiscard]] bool is_valid() const;

 private:
  Connectivity(int dim, std::array<int, 3> extent,
               std::array<bool, 3> periodic);

  int dim_ = 2;
  std::array<int, 3> extent_{1, 1, 1};
  std::array<bool, 3> periodic_{false, false, false};
};

}  // namespace qforest
