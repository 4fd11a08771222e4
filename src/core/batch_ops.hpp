#pragma once
/// \file batch_ops.hpp
/// \brief BatchOps<R>: the batched counterpart of the QuadrantRepresentation
/// concept — the dispatch seam between high-level AMR loops and SIMD batch
/// kernels.
///
/// The paper's observation is that vectorized quadrant primitives pay off
/// when high-level loops consume them in bulk: refine produces all children
/// of a level-uniform span, coarsen takes all parents, balance splits whole
/// marked sets. BatchOps<R> is the customization point those loops are
/// written against, exactly once:
///
///   - the primary template is a generic scalar loop over the scalar
///     R::child / R::parent / ... ops and works for every representation
///     satisfying QuadrantRepresentation (Standard, Morton, Wide, ...);
///   - the AvxRep specialization forwards to the 256-bit AVX2 kernels of
///     AvxBatch (core/batch_avx.hpp) when the build compiled them in AND
///     the executing CPU advertises AVX2 (simd/feature_detect) — non-AVX
///     hosts transparently take the scalar path;
///   - future backends (AVX-512, NEON, GPU staging buffers) plug in as
///     further specializations without touching the forest layer.
///
/// All *_uniform/_n entry points require the inputs of one call to share a
/// single refinement level (stated per op); level-uniform spans arise
/// naturally when the forest stages its per-level work lists. in == out
/// aliasing is allowed (pure load-compute-store loops); a == b aliasing of
/// the comparator inputs likewise, including the off-by-one overlap of
/// adjacent-pair sweeps (each element is read before any store).
///
/// The runtime kill switch (QFOREST_NO_BATCH / batch::set_enabled) picks
/// the kernel bodies and nothing else: with it off, specializations take
/// their generic scalar loops, and every forest algorithm above runs
/// unchanged. It is read only in this file, so one binary can measure and
/// cross-check both kernel sets.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/batch_avx.hpp"
#include "core/canonical.hpp"
#include "core/quadrant_avx.hpp"
#include "core/rep_traits.hpp"
#include "simd/feature_detect.hpp"

namespace qforest {

namespace batch {

/// Process-wide batch-kernel switch: defaults to on, disabled by setting
/// the environment variable QFOREST_NO_BATCH or calling set_enabled(false).
/// Affects only which kernel body runs — results are bit-identical.
/// Atomic with relaxed ordering: the flag may be toggled while a parallel
/// region is running (benches flip it between timed phases) and workers
/// only need *a* consistent value per load, not a synchronized view.
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{
      std::getenv("QFOREST_NO_BATCH") == nullptr};  // NOLINT(concurrency-mt-unsafe)
  return flag;
}
inline bool enabled() {
  // mo: relaxed — kernel-dispatch switch; both kernel bodies compute
  // identical results, so no ordering is needed (see flag doc above).
  return enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  // mo: relaxed — kernel-dispatch switch; see enabled().
  enabled_flag().store(on, std::memory_order_relaxed);
}

/// Number of blocks when [0, n) is cut into chunks of exactly \p grain
/// elements (the last block may be shorter). Shared by the forest's
/// intra-tree chunk scheduling and its serial fallback so both sides
/// agree on chunk ids and boundaries. Written without n + grain - 1,
/// which wraps for a huge grain (SIZE_MAX must give one chunk).
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  return grain == 0 ? (n != 0) : n / grain + (n % grain != 0);
}

}  // namespace batch

/// Span-chunk staging helper: collects the quadrants of one contiguous
/// leaf chunk into level-uniform spans — the bridging step between the
/// forest's intra-tree chunk scheduling and the level-uniform input
/// precondition of every BatchOps entry point.
template <class R>
class SpanStage {
 public:
  using quad_t = typename R::quad_t;

  SpanStage() : spans_(static_cast<std::size_t>(R::max_level) + 1) {}

  void add(const quad_t& q) {
    spans_[static_cast<std::size_t>(R::level(q))].push_back(q);
  }

  [[nodiscard]] std::size_t num_levels() const { return spans_.size(); }
  [[nodiscard]] std::size_t count(std::size_t level) const {
    return spans_[level].size();
  }
  [[nodiscard]] const std::vector<quad_t>& span(std::size_t level) const {
    return spans_[level];
  }

 private:
  std::vector<std::vector<quad_t>> spans_;
};

/// SpanStage variant that also records each staged quadrant's source index
/// (its position in the originating leaf array), so span consumers can
/// refer back to the source leaf — the read-path sweeps (ghost layer, face
/// iteration) emit results keyed by leaf index, not by quadrant value.
template <class R>
class IndexedSpanStage {
 public:
  using quad_t = typename R::quad_t;

  IndexedSpanStage()
      : spans_(static_cast<std::size_t>(R::max_level) + 1),
        sources_(static_cast<std::size_t>(R::max_level) + 1) {}

  void add(const quad_t& q, std::size_t source) {
    const auto l = static_cast<std::size_t>(R::level(q));
    spans_[l].push_back(q);
    sources_[l].push_back(source);
  }

  [[nodiscard]] std::size_t num_levels() const { return spans_.size(); }
  [[nodiscard]] std::size_t count(std::size_t level) const {
    return spans_[level].size();
  }
  [[nodiscard]] const std::vector<quad_t>& span(std::size_t level) const {
    return spans_[level];
  }
  [[nodiscard]] const std::vector<std::size_t>& sources(
      std::size_t level) const {
    return sources_[level];
  }

 private:
  std::vector<std::vector<quad_t>> spans_;
  std::vector<std::vector<std::size_t>> sources_;
};

/// Generic scalar bodies, shared by the primary template and by the SIMD
/// specializations as their portable fallback path.
template <class R>
struct ScalarBatch {
  using quad_t = typename R::quad_t;

  static void child_uniform(const quad_t* in, quad_t* out, std::size_t n,
                            int c, int /*level*/) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::child(in[i], c);
    }
  }

  static void parent_uniform(const quad_t* in, quad_t* out, std::size_t n,
                             int /*level*/) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::parent(in[i]);
    }
  }

  static void sibling_uniform(const quad_t* in, quad_t* out, std::size_t n,
                              int s, int /*level*/) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::sibling(in[i], s);
    }
  }

  static void face_neighbor_uniform(const quad_t* in, quad_t* out,
                                    std::size_t n, int f, int /*level*/) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::face_neighbor(in[i], f);
    }
  }

  static void successor_n(const quad_t* in, quad_t* out, std::size_t n,
                          int /*level*/) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::successor(in[i]);
    }
  }

  static void first_descendant_n(const quad_t* in, quad_t* out,
                                 std::size_t n, int to_level) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::first_descendant(in[i], to_level);
    }
  }

  static void last_descendant_n(const quad_t* in, quad_t* out,
                                std::size_t n, int /*level*/, int to_level) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::last_descendant(in[i], to_level);
    }
  }

  static void child_id_n(const quad_t* in, int* out, std::size_t n,
                         int /*level*/) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::child_id(in[i]);
    }
  }

  static void equal_mask(const quad_t* a, const quad_t* b,
                         std::uint8_t* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::equal(a[i], b[i]) ? 1 : 0;
    }
  }

  static void less_mask(const quad_t* a, const quad_t* b, std::uint8_t* out,
                        std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::less(a[i], b[i]) ? 1 : 0;
    }
  }

  static void neighbor_at_offset_n(const quad_t* in, std::int64_t* ox,
                                   std::int64_t* oy, std::int64_t* oz,
                                   std::size_t n, int dx, int dy, int dz,
                                   int level) {
    const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - level);
    for (std::size_t i = 0; i < n; ++i) {
      const CanonicalQuadrant c = to_canonical<R>(in[i]);
      ox[i] = c.x + dx * h;
      oy[i] = c.y + dy * h;
      oz[i] = c.z + dz * h;
    }
  }

  static void morton_quadrant_n(const morton_t* il, quad_t* out,
                                std::size_t n, int level) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = R::morton_quadrant(il[i], level);
    }
  }
};

/// Primary template: every representation gets the scalar-loop bodies.
/// Operation contract (shared by all specializations):
///   child_uniform(in, out, n, c, level)       out[i] = child(in[i], c)
///   parent_uniform(in, out, n, level)         out[i] = parent(in[i])
///   sibling_uniform(in, out, n, s, level)     out[i] = sibling(in[i], s)
///   face_neighbor_uniform(in, out, n, f, l)   out[i] = face_neighbor(in[i], f)
///   successor_n(in, out, n, level)            out[i] = successor(in[i])
///   first_descendant_n(in, out, n, to)        out[i] = first_descendant(in[i], to)
///   last_descendant_n(in, out, n, level, to)  out[i] = last_descendant(in[i], to)
///   child_id_n(in, out, n, level)             out[i] = child_id(in[i])
///   equal_mask(a, b, out, n)                  out[i] = equal(a[i], b[i])
///   less_mask(a, b, out, n)                   out[i] = less(a[i], b[i])
///   neighbor_at_offset_n(in, ox, oy, oz, n, dx, dy, dz, level)
///       (ox,oy,oz)[i] = canonical(in[i]) + (dx,dy,dz) * h_canonical(level)
///   morton_quadrant_n(il, out, n, level)      out[i] = morton_quadrant(il[i], level)
/// `level` is the uniform level of every element of `in` (callers stage
/// level-uniform spans); first_descendant_n, equal_mask and less_mask
/// accept mixed levels. morton_quadrant_n takes level-relative Morton
/// *indices* instead of quadrants (the bulk producer of new_uniform and
/// workload builders) and requires dim * level < 64.
///
/// neighbor_at_offset_n is the bulk producer of the balance mark phase: it
/// emits the *canonical-grid* (2^60, core/canonical.hpp) lower corner of
/// every same-level neighbor displaced by (dx,dy,dz) quadrant lengths.
/// Coordinates may fall outside [0, 2^60) when the neighbor crosses the
/// tree boundary — the caller wraps them, resolves the neighbor tree via
/// the connectivity, and re-encodes with from_canonical (the wrapped
/// coordinates stay aligned to R's grid, so the precondition holds).
template <class R>
  requires QuadrantRepresentation<R>
struct BatchOps : ScalarBatch<R> {
  /// True when this instantiation can route to real SIMD batch kernels.
  static constexpr bool has_simd_kernels = false;
  /// True when calls will actually take the SIMD path right now.
  static bool simd_active() { return false; }
};

/// AvxRep routes to the 256-bit kernels, gated at runtime by cpuid and the
/// batch kill switch. The gate decides per call, so one binary can compare
/// both paths and a build running on a weaker CPU degrades safely.
template <int Dim>
struct BatchOps<AvxRep<Dim>> {
  using R = AvxRep<Dim>;
  using quad_t = typename R::quad_t;
  using simd_kernels = AvxBatch<Dim>;
  using scalar_kernels = ScalarBatch<R>;

  static constexpr bool has_simd_kernels = simd_kernels::vectorized();

  static bool simd_active() {
    return has_simd_kernels && batch::enabled() && simd::avx2_usable();
  }

  static void child_uniform(const quad_t* in, quad_t* out, std::size_t n,
                            int c, int level) {
    if (simd_active()) {
      simd_kernels::child_uniform(in, out, n, c, level);
    } else {
      scalar_kernels::child_uniform(in, out, n, c, level);
    }
  }

  static void parent_uniform(const quad_t* in, quad_t* out, std::size_t n,
                             int level) {
    if (simd_active()) {
      simd_kernels::parent_uniform(in, out, n, level);
    } else {
      scalar_kernels::parent_uniform(in, out, n, level);
    }
  }

  static void sibling_uniform(const quad_t* in, quad_t* out, std::size_t n,
                              int s, int level) {
    if (simd_active()) {
      simd_kernels::sibling_uniform(in, out, n, s, level);
    } else {
      scalar_kernels::sibling_uniform(in, out, n, s, level);
    }
  }

  static void face_neighbor_uniform(const quad_t* in, quad_t* out,
                                    std::size_t n, int f, int level) {
    if (simd_active()) {
      simd_kernels::face_neighbor_uniform(in, out, n, f, level);
    } else {
      scalar_kernels::face_neighbor_uniform(in, out, n, f, level);
    }
  }

  static void successor_n(const quad_t* in, quad_t* out, std::size_t n,
                          int level) {
    // Carry chain: scalar on every path (no lane-parallel form).
    scalar_kernels::successor_n(in, out, n, level);
  }

  static void first_descendant_n(const quad_t* in, quad_t* out,
                                 std::size_t n, int to_level) {
    if (simd_active()) {
      simd_kernels::first_descendant_n(in, out, n, to_level);
    } else {
      scalar_kernels::first_descendant_n(in, out, n, to_level);
    }
  }

  static void last_descendant_n(const quad_t* in, quad_t* out,
                                std::size_t n, int level, int to_level) {
    if (simd_active()) {
      simd_kernels::last_descendant_n(in, out, n, level, to_level);
    } else {
      scalar_kernels::last_descendant_n(in, out, n, level, to_level);
    }
  }

  static void child_id_n(const quad_t* in, int* out, std::size_t n,
                         int level) {
    if (simd_active()) {
      simd_kernels::child_id_n(in, out, n, level);
    } else {
      scalar_kernels::child_id_n(in, out, n, level);
    }
  }

  static void equal_mask(const quad_t* a, const quad_t* b,
                         std::uint8_t* out, std::size_t n) {
    if (simd_active()) {
      simd_kernels::equal_mask(a, b, out, n);
    } else {
      scalar_kernels::equal_mask(a, b, out, n);
    }
  }

  static void less_mask(const quad_t* a, const quad_t* b, std::uint8_t* out,
                        std::size_t n) {
    // Branchy MSB rule: scalar on every path (no lane-parallel form).
    scalar_kernels::less_mask(a, b, out, n);
  }

  static void neighbor_at_offset_n(const quad_t* in, std::int64_t* ox,
                                   std::int64_t* oy, std::int64_t* oz,
                                   std::size_t n, int dx, int dy, int dz,
                                   int level) {
    if (simd_active()) {
      simd_kernels::neighbor_at_offset_n(in, ox, oy, oz, n, dx, dy, dz,
                                         level);
    } else {
      scalar_kernels::neighbor_at_offset_n(in, ox, oy, oz, n, dx, dy, dz,
                                           level);
    }
  }

  static void morton_quadrant_n(const morton_t* il, quad_t* out,
                                std::size_t n, int level) {
    if (simd_active()) {
      simd_kernels::morton_quadrant_n(il, out, n, level);
    } else {
      scalar_kernels::morton_quadrant_n(il, out, n, level);
    }
  }
};

}  // namespace qforest
