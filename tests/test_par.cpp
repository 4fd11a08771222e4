/// \file test_par.cpp
/// \brief Simulated-MPI layer: communicator collectives, thread pool,
/// strong-scaling rank counts and efficiency.

#include <atomic>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "par/communicator.hpp"
#include "par/strong_scaling.hpp"
#include "par/thread_pool.hpp"

namespace qforest::par {
namespace {

TEST(Communicator, SizeValidation) {
  EXPECT_THROW(Communicator(0), std::invalid_argument);
  EXPECT_THROW(Communicator(-3), std::invalid_argument);
  EXPECT_EQ(Communicator(4).size(), 4);
}

TEST(Communicator, OwnerOfAtExactOffsetBoundaries) {
  // Offsets with empty ranks: {0,3,3,7,7,9}. A boundary index belongs to
  // the *last* rank whose range starts there — empty ranks own nothing.
  const std::vector<std::int64_t> off{0, 3, 3, 7, 7, 9};
  EXPECT_EQ(Communicator::owner_of(off, 0), 0);
  EXPECT_EQ(Communicator::owner_of(off, 2), 0);
  EXPECT_EQ(Communicator::owner_of(off, 3), 2);  // rank 1 is empty
  EXPECT_EQ(Communicator::owner_of(off, 6), 2);
  EXPECT_EQ(Communicator::owner_of(off, 7), 4);  // rank 3 is empty
  EXPECT_EQ(Communicator::owner_of(off, 8), 4);
}

TEST(StrongScaling, ShardRankCountsAndEfficiency) {
  const auto counts = shard_rank_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts.front(), 8);
  EXPECT_EQ(counts.back(), 64);
  // Ideal speedup saturates at the core count.
  EXPECT_DOUBLE_EQ(scaling_efficiency(8.0, 2.0, 4, 16), 1.0);
  EXPECT_DOUBLE_EQ(scaling_efficiency(8.0, 2.0, 16, 4), 1.0);
  EXPECT_DOUBLE_EQ(scaling_efficiency(8.0, 8.0, 16, 4), 0.25);
  EXPECT_DOUBLE_EQ(scaling_efficiency(1.0, 0.0, 4, 4), 0.0);
}

TEST(Communicator, BlockDistributionCoversEverythingEvenly) {
  for (int p : {1, 2, 3, 7, 16}) {
    Communicator comm(p);
    for (std::int64_t n : {0ll, 1ll, 13ll, 100ll, 1000001ll}) {
      const auto off = comm.block_distribution(n);
      ASSERT_EQ(static_cast<int>(off.size()), p + 1);
      EXPECT_EQ(off.front(), 0);
      EXPECT_EQ(off.back(), n);
      for (int r = 0; r < p; ++r) {
        const std::int64_t len = off[r + 1] - off[r];
        EXPECT_GE(len, n / p);
        EXPECT_LE(len, n / p + 1);
      }
    }
  }
}

TEST(Communicator, OwnerOfMatchesRanges) {
  Communicator comm(5);
  const auto off = comm.block_distribution(23);
  for (std::int64_t g = 0; g < 23; ++g) {
    const int r = Communicator::owner_of(off, g);
    EXPECT_GE(g, off[r]);
    EXPECT_LT(g, off[r + 1]);
  }
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeDisjointly) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForGrainExactBlockGeometry) {
  ThreadPool pool(3);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(100);
    std::atomic<int> blocks{0};
    pool.parallel_for_grain(100, grain, [&](std::size_t b, std::size_t e) {
      EXPECT_EQ(b % grain, 0u);
      EXPECT_TRUE(e - b == grain || e == 100u);
      blocks.fetch_add(1);
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1);
      }
    });
    for (auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
    const int expected =
        static_cast<int>((100 + grain - 1) / grain);
    EXPECT_EQ(blocks.load(), expected);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Every worker of a tiny pool issues its own inner parallel_for; the
  // helping wait must execute the queued inner blocks instead of letting
  // all workers block on their latches.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      pool.parallel_for_grain(10, 2, [&](std::size_t ib, std::size_t ie) {
        inner_total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ThreadPool, ParallelForGrainRethrowsLowestIndexBlockToOwner) {
  // Exceptions are routed to the call that owns the region (even when a
  // block executes on another caller's helping thread) and the winner is
  // deterministic: the lowest-index throwing block.
  ThreadPool pool(2);
  for (int rep = 0; rep < 25; ++rep) {
    bool caught = false;
    try {
      pool.parallel_for_grain(8, 1, [](std::size_t b, std::size_t) {
        if (b >= 2) {
          throw std::runtime_error("block " + std::to_string(b));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "block 2");
    }
    EXPECT_TRUE(caught);
  }
}

TEST(ThreadPool, SingleWorkerNestedStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.parallel_for_grain(4, 1, [&](std::size_t, std::size_t) {
    pool.parallel_for_grain(6, 3, [&](std::size_t b, std::size_t e) {
      total.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(total.load(), 24);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 10);
  }
}

}  // namespace
}  // namespace qforest::par
