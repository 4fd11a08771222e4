#pragma once
/// \file helpers.hpp
/// \brief Shared test utilities: random quadrant generation, the list of
/// representation types under test, canonical-form matchers, and guards
/// for the process-global kernel, chunk-grain and metrics switches.

#include <algorithm>
#include <cstddef>
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
