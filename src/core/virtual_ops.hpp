#pragma once
/// \file virtual_ops.hpp
/// \brief Runtime-polymorphic quadrant interface (the paper's virtualized
/// quadrant branch).
///
/// The paper closes: "we have been working on a new branch of high-level
/// algorithms that operate on virtualized quadrants". This header provides
/// that interface: an abstract class whose methods mirror the
/// QuadrantRepresentation concept but operate on an opaque fixed-size
/// value type, so the encoding can be chosen at run time (e.g. from a
/// configuration file). The cost of the indirection relative to
/// compile-time traits is quantified by bench/bench_virtual on the paper's
/// op workload.
///
/// VForest (forest/vforest.hpp) does not run its algorithms through these
/// ops: it holds a Forest<R> and only boxes the quadrants it hands to
/// callbacks (VirtualOpsAdapter<R>::box), which then interpret them
/// through ops().

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "core/canonical.hpp"
#include "core/types.hpp"

namespace qforest {

/// Opaque value storage large enough for every shipped representation
/// (StandardQuadrant<3> is the largest at 24 bytes) and aligned for SIMD.
struct VQuad {
  alignas(16) unsigned char bytes[24] = {};

  friend bool operator==(const VQuad& a, const VQuad& b) {
    return std::memcmp(a.bytes, b.bytes, sizeof a.bytes) == 0;
  }
};

/// Identifier of a shipped representation for runtime selection.
enum class RepKind { kStandard, kMorton, kAvx, kWideMorton };

/// Parse "standard" / "morton" / "avx" / "wide-morton".
RepKind rep_kind_from_string(const std::string& s);

/// Printable name of a RepKind.
const char* rep_kind_name(RepKind kind);

/// Abstract per-quadrant operation set; one virtual call per low-level
/// operation, mirroring the QuadrantRepresentation concept.
class VirtualQuadrantOps {
 public:
  virtual ~VirtualQuadrantOps() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual int dim() const = 0;
  [[nodiscard]] virtual int max_level() const = 0;
  /// Bytes of VQuad actually used by this encoding (8/16/24).
  [[nodiscard]] virtual std::size_t storage_bytes() const = 0;

  [[nodiscard]] virtual VQuad root() const = 0;
  [[nodiscard]] virtual int level(const VQuad& q) const = 0;
  [[nodiscard]] virtual VQuad morton_quadrant(morton_t il, int lvl) const = 0;
  [[nodiscard]] virtual morton_t level_index(const VQuad& q) const = 0;

  /// Exact representation-independent form, valid for every level of
  /// every encoding.
  [[nodiscard]] virtual CanonicalQuadrant canonical(const VQuad& q) const = 0;

  [[nodiscard]] virtual VQuad child(const VQuad& q, int c) const = 0;
  [[nodiscard]] virtual VQuad parent(const VQuad& q) const = 0;
  [[nodiscard]] virtual VQuad sibling(const VQuad& q, int s) const = 0;
  [[nodiscard]] virtual int child_id(const VQuad& q) const = 0;

  virtual void tree_boundaries(const VQuad& q, int* out) const = 0;

  [[nodiscard]] virtual bool equal(const VQuad& a, const VQuad& b) const = 0;
  [[nodiscard]] virtual bool less(const VQuad& a, const VQuad& b) const = 0;
  [[nodiscard]] virtual bool is_ancestor(const VQuad& a,
                                         const VQuad& b) const = 0;
  [[nodiscard]] virtual bool is_valid(const VQuad& q) const = 0;
};

/// Access the process-wide ops singleton for a representation + dimension.
/// \p dim is 2 or 3.
const VirtualQuadrantOps& virtual_ops(RepKind kind, int dim);

/// Concept-to-virtual adapter; header-only so user representations can be
/// wrapped too.
template <class R>
class VirtualOpsAdapter final : public VirtualQuadrantOps {
 public:
  using quad_t = typename R::quad_t;
  static_assert(sizeof(quad_t) <= sizeof(VQuad::bytes));

  static quad_t unbox(const VQuad& v) {
    quad_t q;
    std::memcpy(&q, v.bytes, sizeof q);
    return q;
  }

  static VQuad box(const quad_t& q) {
    VQuad v;
    std::memcpy(v.bytes, &q, sizeof q);
    return v;
  }

  [[nodiscard]] const char* name() const override { return R::name; }
  [[nodiscard]] int dim() const override { return R::dim; }
  [[nodiscard]] int max_level() const override { return R::max_level; }
  [[nodiscard]] std::size_t storage_bytes() const override {
    return sizeof(quad_t);
  }

  [[nodiscard]] VQuad root() const override { return box(R::root()); }
  [[nodiscard]] int level(const VQuad& q) const override {
    return R::level(unbox(q));
  }
  [[nodiscard]] VQuad morton_quadrant(morton_t il, int lvl) const override {
    return box(R::morton_quadrant(il, lvl));
  }
  [[nodiscard]] morton_t level_index(const VQuad& q) const override {
    return R::level_index(unbox(q));
  }

  [[nodiscard]] CanonicalQuadrant canonical(const VQuad& q) const override {
    return to_canonical<R>(unbox(q));
  }

  [[nodiscard]] VQuad child(const VQuad& q, int c) const override {
    return box(R::child(unbox(q), c));
  }
  [[nodiscard]] VQuad parent(const VQuad& q) const override {
    return box(R::parent(unbox(q)));
  }
  [[nodiscard]] VQuad sibling(const VQuad& q, int s) const override {
    return box(R::sibling(unbox(q), s));
  }
  [[nodiscard]] int child_id(const VQuad& q) const override {
    return R::child_id(unbox(q));
  }

  void tree_boundaries(const VQuad& q, int* out) const override {
    R::tree_boundaries(unbox(q), out);
  }

  [[nodiscard]] bool equal(const VQuad& a, const VQuad& b) const override {
    return R::equal(unbox(a), unbox(b));
  }
  [[nodiscard]] bool less(const VQuad& a, const VQuad& b) const override {
    return R::less(unbox(a), unbox(b));
  }
  [[nodiscard]] bool is_ancestor(const VQuad& a,
                                 const VQuad& b) const override {
    return R::is_ancestor(unbox(a), unbox(b));
  }
  [[nodiscard]] bool is_valid(const VQuad& q) const override {
    return R::is_valid(unbox(q));
  }
};

}  // namespace qforest
