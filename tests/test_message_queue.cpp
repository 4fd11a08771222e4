/// \file test_message_queue.cpp
/// \brief Sharded rank runtime: MPSC mailbox, (source, tag) matching with
/// out-of-order delivery, delivery delay and failure propagation.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "par/communicator.hpp"
#include "par/message_queue.hpp"
#include "util/timer.hpp"

namespace qforest::par {
namespace {

std::vector<std::uint8_t> byte_payload(std::initializer_list<int> values) {
  std::vector<std::uint8_t> bytes;
  for (int v : values) {
    bytes.push_back(static_cast<std::uint8_t>(v));
  }
  return bytes;
}

TEST(Mailbox, PushPopPreservesFifoPerQueue) {
  Mailbox box;
  for (int i = 0; i < 5; ++i) {
    box.push(Message{0, i, byte_payload({i})},
             Mailbox::clock::time_point::min());
  }
  Message m;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(box.try_pop(m));
    EXPECT_EQ(m.tag, i);
    ASSERT_EQ(m.bytes.size(), 1u);
    EXPECT_EQ(m.bytes[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_FALSE(box.try_pop(m));
}

TEST(RankGroup, SendRecvRoundTrip) {
  RankGroup group(2);
  group.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.isend(1, 7, byte_payload({42}));
    } else {
      const Message m = ctx.recv(0, 7);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
      ASSERT_EQ(m.bytes.size(), 1u);
      EXPECT_EQ(m.bytes[0], 42u);
    }
  });
}

TEST(RankGroup, TagMatchingHandlesOutOfOrderDelivery) {
  // The sender posts tags 7 then 3; the receiver asks for 3 first. The
  // tag-7 message arrives ahead of its recv, parks on the unexpected
  // list and is delivered by the later matching receive.
  RankGroup group(2);
  group.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.isend(1, 7, byte_payload({77}));
      ctx.isend(1, 3, byte_payload({33}));
    } else {
      const Message first = ctx.recv(0, 3);
      EXPECT_EQ(first.bytes[0], 33u);
      const Message second = ctx.recv(0, 7);
      EXPECT_EQ(second.bytes[0], 77u);
    }
  });
}

TEST(RankGroup, SourceMatchingAndWildcards) {
  RankGroup group(4);
  group.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      // Ask for rank 2's message first although ranks 1..3 all send.
      const Message from2 = ctx.recv(2, kAnyTag);
      EXPECT_EQ(from2.source, 2);
      int seen = 0;
      for (int k = 0; k < 2; ++k) {
        const Message any = ctx.recv(kAnySource, kAnyTag);
        EXPECT_NE(any.source, 2);
        seen += any.source;
      }
      EXPECT_EQ(seen, 1 + 3);
    } else {
      ctx.isend(0, ctx.rank(), byte_payload({ctx.rank()}));
    }
  });
}

TEST(RankGroup, ManyProducersOneConsumer) {
  // MPSC stress: every other rank floods rank 0; the sum of all payload
  // bytes must arrive intact (this is the TSAN workout for the lock-free
  // push path).
  constexpr int kRanks = 8;
  constexpr int kPerRank = 200;
  RankGroup group(kRanks);
  group.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::int64_t sum = 0;
      for (int k = 0; k < (kRanks - 1) * kPerRank; ++k) {
        const Message m = ctx.recv();
        sum += m.bytes.at(0);
      }
      EXPECT_EQ(sum, std::int64_t{kRanks - 1} * kPerRank * 5);
    } else {
      for (int k = 0; k < kPerRank; ++k) {
        ctx.isend(0, k, byte_payload({5}));
      }
    }
  });
}

TEST(RankGroup, SizeOneRunsInlineWithoutThreads) {
  RankGroup group(1);
  std::thread::id caller = std::this_thread::get_id();
  group.run([&](RankCtx& ctx) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(ctx.size(), 1);
    // A send to itself is queued before the receive asks for it.
    ctx.isend(0, 9, byte_payload({7}));
    EXPECT_EQ(ctx.recv(0, 9).bytes, byte_payload({7}));
  });
}

TEST(RankGroup, DeliveryDelayHoldsMessagesBack) {
  RankGroup group(2);
  group.set_delivery_delay(std::chrono::milliseconds(20));
  group.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.isend(1, 1, {});
    } else {
      WallTimer t;
      (void)ctx.recv(0, 1);
      // Generous lower bound: the message cannot be receivable before
      // its ready time (minus scheduler resolution slack).
      EXPECT_GE(t.elapsed_s(), 0.010);
    }
  });
}

TEST(RankGroup, WorkerExceptionUnblocksPeersAndPropagates) {
  // Rank 2 throws before sending; rank 0 would block forever on the
  // matching recv without the group abort. run() must rethrow the
  // original exception, not the secondary RankAborted of rank 0.
  RankGroup group(3);
  bool caught = false;
  try {
    group.run([](RankCtx& ctx) {
      if (ctx.rank() == 2) {
        throw std::runtime_error("boom on rank 2");
      }
      if (ctx.rank() == 0) {
        (void)ctx.recv(2, 1);
        FAIL() << "recv from the failed rank must not complete";
      }
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "boom on rank 2");
  }
  EXPECT_TRUE(caught);
}

TEST(Communicator, RunRanksExposesTheQueue) {
  Communicator comm(4);
  std::atomic<int> total{0};
  comm.run_ranks([&](RankCtx& ctx) {
    // Every rank sends a 1 to every other rank and adds what it receives
    // to its own 1.
    for (int s = 0; s < ctx.size(); ++s) {
      if (s != ctx.rank()) {
        ctx.isend(s, 5, byte_payload({1}));
      }
    }
    int sum = 1;
    for (int k = 0; k + 1 < ctx.size(); ++k) {
      sum += ctx.recv(kAnySource, 5).bytes.at(0);
    }
    total.fetch_add(sum);
  });
  EXPECT_EQ(total.load(), 16);
}

}  // namespace
}  // namespace qforest::par
