/// \file test_debug_checks.cpp
/// \brief The QFOREST_DEBUG_CHECKS contract detectors: each one fires on
/// a deliberately seeded violation — a racy (serial-declared) callback
/// entered concurrently, overlapping / malformed chunk claims, reentrant
/// scheduling-depth abuse, a failed structural assertion — and stays
/// silent on clean use. The suite-wide silence assertion lives in
/// tests/helpers.hpp (DebugCheckSilence); every seeding test consumes its
/// violations with debug::reset_violations() before finishing.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <latch>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "helpers.hpp"
#include "par/thread_pool.hpp"

namespace qforest {
namespace {

#if !QFOREST_DEBUG_CHECKS_ENABLED
TEST(DebugChecks, CompiledOut) {
  GTEST_SKIP() << "built without QFOREST_DEBUG_CHECKS";
}
#else

using test_clock = std::chrono::steady_clock;

/// Reset detectors and scheduling switches around every test: the
/// detectors are process-global, and a leaked expect_serial(true) would
/// turn the rest of the binary's legitimate concurrency into violations.
class DebugChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_grain_ = chunk_grain();
    debug::callback_detector().reset();
    debug::reset_violations();
  }
  void TearDown() override {
    set_chunk_grain(saved_grain_);
    set_tree_parallelism(true);
    debug::callback_detector().reset();
    debug::reset_violations();
  }

 private:
  std::size_t saved_grain_ = 0;
};

// ---- callback-concurrency detector -----------------------------------------

TEST_F(DebugChecks, ConcurrentEntryIsRecordedAndFiresWhenSerialDeclared) {
  auto& det = debug::callback_detector();
  det.expect_serial(true);

  // Deterministic overlap: both threads hold their Scope open until the
  // other has entered too.
  std::latch both_inside(2);
  auto body = [&] {
    const debug::ConcurrencyDetector::Scope scope(det);
    both_inside.arrive_and_wait();
  };
  std::thread a(body), b(body);
  a.join();
  b.join();

  EXPECT_TRUE(det.concurrency_observed());
  EXPECT_GE(debug::violations(debug::Check::kCallbackConcurrency), 1u);
  debug::reset_violations();
}

TEST_F(DebugChecks, SerialEntriesStaySilentEvenWhenSerialDeclared) {
  auto& det = debug::callback_detector();
  det.expect_serial(true);
  for (int i = 0; i < 100; ++i) {
    const debug::ConcurrencyDetector::Scope scope(det);
  }
  EXPECT_FALSE(det.concurrency_observed());
  EXPECT_EQ(debug::violations(debug::Check::kCallbackConcurrency), 0u);
}

TEST_F(DebugChecks, RacyRefineCallbackIsCaughtEndToEnd) {
  // A callback that is NOT thread-safe but leaves both scheduling levels
  // on: the detector must prove the concurrent entry. Each invocation
  // spins until some other invocation overlaps with it (the pool has at
  // least two executors: the submitting thread helps), so the overlap is
  // reached deterministically rather than sampled.
  auto& det = debug::callback_detector();
  det.expect_serial(true);
  set_chunk_grain(4);

  auto f = Forest<MortonRep<2>>::new_uniform(Connectivity::unit(2), 3);
  ASSERT_GE(f.num_quadrants(), gidx_t{16});
  f.refine(false, [&](tree_id_t, const MortonRep<2>::quad_t&) {
    const auto deadline = test_clock::now() + std::chrono::seconds(2);
    while (!det.concurrency_observed() && test_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return false;
  });

  EXPECT_TRUE(det.concurrency_observed())
      << "chunked refine never overlapped two callback invocations";
  EXPECT_GE(debug::violations(debug::Check::kCallbackConcurrency), 1u);
  debug::reset_violations();
}

TEST_F(DebugChecks, ContractAwareRefineStaysSilent) {
  // Same two-level parallel refine, but without the serial-only
  // declaration: concurrency may be recorded as a statistic, never as a
  // violation.
  set_chunk_grain(2);
  auto f = Forest<MortonRep<2>>::new_uniform(Connectivity::unit(2), 3);
  std::atomic<int> calls{0};
  f.refine(false, [&](tree_id_t, const MortonRep<2>::quad_t&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return false;
  });
  EXPECT_EQ(calls.load(), 64);
  EXPECT_EQ(debug::violations(debug::Check::kCallbackConcurrency), 0u);
}

// ---- chunk-geometry coverage ------------------------------------------------

TEST_F(DebugChecks, ChunkCoverageAcceptsExactPartition) {
  debug::ChunkCoverage cov(10, 4);
  cov.claim(0, 4);
  cov.claim(4, 8);
  cov.claim(8, 10);  // final block may stop short at n
  cov.finish();
  EXPECT_EQ(debug::total_violations(), 0u);
}

TEST_F(DebugChecks, ChunkCoverageFiresOnDoubleExecution) {
  debug::ChunkCoverage cov(8, 4);
  cov.claim(0, 4);
  cov.claim(0, 4);  // the same chunk executed twice: overlapping writes
  EXPECT_EQ(debug::violations(debug::Check::kChunkOverlap), 1u);
  debug::reset_violations();
}

TEST_F(DebugChecks, ChunkCoverageFiresOnMalformedBlock) {
  debug::ChunkCoverage cov(10, 4);
  cov.claim(2, 6);   // not grain-aligned
  cov.claim(4, 6);   // short block that is not the final one
  cov.claim(8, 12);  // runs past n
  EXPECT_EQ(debug::violations(debug::Check::kChunkGeometry), 3u);
  debug::reset_violations();
}

TEST_F(DebugChecks, ChunkCoverageFiresOnIncompleteCoverage) {
  debug::ChunkCoverage cov(12, 4);
  cov.claim(0, 4);
  cov.claim(8, 12);  // chunk [4, 8) never executed
  cov.finish();
  EXPECT_EQ(debug::violations(debug::Check::kChunkCoverage), 1u);
  debug::reset_violations();
}

TEST_F(DebugChecks, ParallelForGrainRunsCleanUnderCoverageChecks) {
  // The live wiring in ThreadPool::parallel_for_grain: a clean run over
  // an awkward (non-dividing, nested) geometry must record nothing.
  par::ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_grain(1003, 17, [&](std::size_t b, std::size_t e) {
    total.fetch_add(e - b, std::memory_order_relaxed);
    // Nested dispatch from inside a block (helping wait): its own
    // coverage state is independent of the outer call's.
    pool.parallel_for_grain(5, 2, [&](std::size_t, std::size_t) {});
  });
  EXPECT_EQ(total.load(), 1003u);
  EXPECT_EQ(debug::total_violations(), 0u);
}

// ---- scheduling-depth invariant ---------------------------------------------

TEST_F(DebugChecks, LegalDispatchDepthsStaySilent) {
  // The legal dispatch decisions: tree-level from application code,
  // chunk-level from application code or from a tree task.
  debug::check_depth_transition(0, 1);
  debug::check_depth_transition(0, 2);
  debug::check_depth_transition(1, 2);
  EXPECT_EQ(debug::violations(debug::Check::kDepthInvariant), 0u);
}

TEST_F(DebugChecks, ChunkWorkerDispatchFires) {
  // A chunk worker (depth 2) must never submit pool tasks: both a tree-
  // level and a chunk-level dispatch from depth 2 are violations.
  debug::check_depth_transition(2, 1);
  debug::check_depth_transition(2, 2);
  EXPECT_EQ(debug::violations(debug::Check::kDepthInvariant), 2u);
  debug::reset_violations();
}

TEST_F(DebugChecks, TreeTaskTreeDispatchFires) {
  // Tree loops issued from inside a tree task must run inline, never
  // re-dispatch to the pool.
  debug::check_depth_transition(1, 1);
  EXPECT_EQ(debug::violations(debug::Check::kDepthInvariant), 1u);
  debug::reset_violations();
}

TEST_F(DebugChecks, LiveTwoLevelAdaptStaysDepthSilent) {
  // The live wiring: a two-level parallel refine over several trees
  // dispatches at both levels (and its helping wait may execute tasks
  // on threads whose depth is already nonzero) — none of it may record
  // a dispatch violation.
  set_chunk_grain(2);
  auto f = Forest<MortonRep<2>>::new_uniform(Connectivity::brick2d(2, 2), 3);
  f.refine(false,
           [](tree_id_t, const MortonRep<2>::quad_t&) { return false; });
  EXPECT_EQ(debug::violations(debug::Check::kDepthInvariant), 0u);
}

// ---- post-throw structural consistency --------------------------------------

TEST_F(DebugChecks, StructuralCheckFiresOnSeededFailure) {
  debug::check_structural(false, "seeded structural failure");
  EXPECT_EQ(debug::violations(debug::Check::kStructural), 1u);
  debug::reset_violations();
}

TEST_F(DebugChecks, ThrowingRefineLeavesForestValidAndSilent) {
  // The live wiring: a throwing adaptation callback exercises the
  // post-throw assert in adapt_and_rebuild, which must find the forest
  // structurally consistent (and therefore stay silent).
  set_chunk_grain(2);
  auto f = Forest<MortonRep<2>>::new_uniform(Connectivity::unit(2), 2);
  std::atomic<int> calls{0};
  EXPECT_THROW(
      f.refine(false,
               [&](tree_id_t, const MortonRep<2>::quad_t&) -> bool {
                 if (calls.fetch_add(1, std::memory_order_relaxed) == 5) {
                   throw std::runtime_error("seeded callback failure");
                 }
                 return true;
               }),
      std::runtime_error);
  EXPECT_TRUE(f.is_valid());
  EXPECT_EQ(debug::violations(debug::Check::kStructural), 0u);
}

#endif  // QFOREST_DEBUG_CHECKS_ENABLED

}  // namespace
}  // namespace qforest
