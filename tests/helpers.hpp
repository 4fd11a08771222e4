#pragma once
/// \file helpers.hpp
/// \brief Shared test utilities: random quadrant generation, the list of
/// representation types under test, canonical-form matchers, guards for
/// the process-global kernel, chunk-grain and metrics switches, and the
/// order-independent ghost/mirror and face fingerprints the read-path
/// parity tests compare against the oracle.

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_ops.hpp"
#include "core/canonical.hpp"
#include "core/debug_check.hpp"
#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "core/rep_traits.hpp"
#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace qforest::test {

#if QFOREST_DEBUG_CHECKS_ENABLED
/// The whole suite runs with the debug-check detectors compiled in (see
/// tests/CMakeLists.txt): this global environment fails the binary when
/// any detector recorded a violation that no test consumed — the "clean
/// suite stays silent" half of the contract. Tests that deliberately seed
/// a violation (test_debug_checks.cpp) must call
/// debug::reset_violations() before finishing.
class DebugCheckSilence : public ::testing::Environment {
 public:
  void TearDown() override {
    EXPECT_EQ(qforest::debug::total_violations(), 0u)
        << "debug-check detectors recorded unconsumed violations: "
        << qforest::debug::violation_summary();
  }
};

inline ::testing::Environment* const kDebugCheckSilenceEnv =
    ::testing::AddGlobalTestEnvironment(new DebugCheckSilence);
#endif

/// Deepest level at which the 64-bit level-relative Morton index of the
/// representation stays within 63 bits (morton_quadrant precondition).
template <class R>
constexpr int max_index_level() {
  return std::min(R::max_level, 63 / R::dim - (63 % R::dim == 0 ? 1 : 0));
}

/// Uniformly random quadrant: random level in [0, cap], random position.
template <class R>
typename R::quad_t random_quadrant(Xoshiro256& rng, int max_level_cap = -1) {
  int cap = max_index_level<R>();
  if (max_level_cap >= 0) {
    cap = std::min(cap, max_level_cap);
  }
  const int lvl = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(cap) + 1));
  const morton_t il =
      rng.next_below(std::uint64_t{1} << (R::dim * lvl));
  return R::morton_quadrant(il, lvl);
}

/// Random quadrant at exactly \p lvl.
template <class R>
typename R::quad_t random_quadrant_at(Xoshiro256& rng, int lvl) {
  const morton_t il =
      rng.next_below(std::uint64_t{1} << (R::dim * lvl));
  return R::morton_quadrant(il, lvl);
}

/// gtest assertion: two quadrants of possibly different representations
/// denote the same mesh primitive.
template <class RA, class RB>
::testing::AssertionResult canonically_equal(const typename RA::quad_t& a,
                                             const typename RB::quad_t& b) {
  const CanonicalQuadrant ca = to_canonical<RA>(a);
  const CanonicalQuadrant cb = to_canonical<RB>(b);
  if (ca == cb) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << RA::name << "(" << ca.x << "," << ca.y << "," << ca.z << ",l"
         << ca.level << ") vs " << RB::name << "(" << cb.x << "," << cb.y
         << "," << cb.z << ",l" << cb.level << ")";
}

/// Restores the process-global kernel switch even when an ASSERT_ bails
/// out of the test body, so later tests never run with stale state.
struct BatchFlagGuard {
  explicit BatchFlagGuard(bool on) : saved_(batch::enabled()) {
    batch::set_enabled(on);
  }
  ~BatchFlagGuard() { batch::set_enabled(saved_); }
  BatchFlagGuard(const BatchFlagGuard&) = delete;
  BatchFlagGuard& operator=(const BatchFlagGuard&) = delete;
  bool saved_;
};

/// Turns the metrics registry on for one scope (the tests read counters).
struct MetricsOn {
  MetricsOn() : saved_(obs::metrics_enabled()) { obs::set_metrics(true); }
  ~MetricsOn() { obs::set_metrics(saved_); }
  MetricsOn(const MetricsOn&) = delete;
  MetricsOn& operator=(const MetricsOn&) = delete;
  bool saved_;
};

/// Restores the chunk grain (tests shrink it to force many chunks).
struct ChunkGrainGuard {
  explicit ChunkGrainGuard(std::size_t grain) : saved_(chunk_grain()) {
    set_chunk_grain(grain);
  }
  ~ChunkGrainGuard() { set_chunk_grain(saved_); }
  ChunkGrainGuard(const ChunkGrainGuard&) = delete;
  ChunkGrainGuard& operator=(const ChunkGrainGuard&) = delete;
  std::size_t saved_;
};

/// Run \p fn under both kernel settings (batch kernels on, then the
/// generic loops) and, for each, at the default chunk grain and at
/// \p tiny_grain, which puts a chunk seam every few leaves and keys.
template <class Fn>
void for_each_kernel_and_grain(std::size_t tiny_grain, Fn&& fn) {
  for (const bool kernels : {true, false}) {
    const BatchFlagGuard flag(kernels);
    for (const std::size_t grain : {std::size_t{0}, tiny_grain}) {
      const ChunkGrainGuard chunks(grain == 0 ? chunk_grain() : grain);
      SCOPED_TRACE(::testing::Message()
                   << "batch kernels " << (kernels ? "on" : "off")
                   << ", chunk grain " << chunk_grain());
      fn();
    }
  }
}

/// Every rank's ghost set and mirror set as sorted global indices, from
/// the library (\p use_oracle false) or from the oracle.
template <class R>
std::pair<std::vector<std::vector<gidx_t>>, std::vector<std::vector<gidx_t>>>
adjacency_sets(const Forest<R>& f, bool use_oracle) {
  std::vector<std::vector<gidx_t>> ghosts, mirrors;
  for (int r = 0; r < f.num_ranks(); ++r) {
    const GhostLayer<R> layer =
        use_oracle ? oracle::ghost_layer(f, r) : f.ghost_layer(r);
    std::vector<gidx_t> g;
    for (const auto& e : layer.entries) {
      g.push_back(e.global_index);
    }
    ghosts.push_back(std::move(g));
    mirrors.push_back(use_oracle ? oracle::mirrors(f, r) : f.mirrors(r));
  }
  return {ghosts, mirrors};
}

using FaceTuple = std::tuple<bool, bool, tree_id_t, std::size_t, int,
                             tree_id_t, std::size_t, int>;

/// Order-independent face fingerprint: one canonical tuple per emission,
/// from the library's concurrent iterate_faces or the oracle's serial one.
template <class R>
std::multiset<FaceTuple> face_fingerprint(const Forest<R>& f,
                                          bool use_oracle) {
  std::multiset<FaceTuple> out;
  std::mutex mu;
  const auto record = [&](const FaceInfo<R>& info) {
    const std::lock_guard<std::mutex> lock(mu);
    out.insert({info.is_boundary, info.is_hanging, info.tree[0],
                info.leaf_index[0], info.face[0], info.tree[1],
                info.leaf_index[1], info.face[1]});
  };
  if (use_oracle) {
    oracle::iterate_faces(f, record);
  } else {
    f.iterate_faces(record);
  }
  return out;
}

/// All shipped representations, used by TYPED_TEST suites.
using Reps2D = ::testing::Types<StandardRep<2>, MortonRep<2>, AvxRep<2>,
                                WideMortonRep<2>>;
using Reps3D = ::testing::Types<StandardRep<3>, MortonRep<3>, AvxRep<3>,
                                WideMortonRep<3>>;
using AllReps =
    ::testing::Types<StandardRep<2>, MortonRep<2>, AvxRep<2>,
                     WideMortonRep<2>, StandardRep<3>, MortonRep<3>,
                     AvxRep<3>, WideMortonRep<3>>;

}  // namespace qforest::test
