/// \file test_obs.cpp
/// \brief Observability subsystem: counter/histogram shard merging, the
/// disabled-path no-op contract, ground-truth counts for the instrumented
/// forest and message paths, and trace span recording + JSON export.
///
/// Metrics live in a process-global registry, so every assertion here is
/// on the *delta* of a counter across the operation under test, and each
/// test restores the enabled/disabled gates it flips.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/quadrant_morton.hpp"
#include "forest/forest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/message_queue.hpp"
#include "util/log.hpp"

namespace qforest {
namespace {

using R2 = MortonRep<2>;

/// Flips the metrics gate for one scope and restores the previous state.
struct MetricsOn {
  bool prev = obs::metrics_enabled();
  MetricsOn() { obs::set_metrics(true); }
  ~MetricsOn() { obs::set_metrics(prev); }
};

TEST(ObsMetrics, DisabledRecordingIsANoOp) {
  obs::set_metrics(false);
  obs::Counter& c = obs::counter("test.obs.disabled_counter");
  obs::Histogram& h = obs::histogram("test.obs.disabled_hist");
  c.reset();
  h.reset();
  c.add(5);
  h.record(42);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(ObsMetrics, CounterShardMergeIsExactAcrossThreads) {
  const MetricsOn on;
  obs::Counter& c = obs::counter("test.obs.sharded_counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        c.add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), kThreads * kAdds);
}

TEST(ObsMetrics, HistogramShardMergeIsExactAcrossThreads) {
  const MetricsOn on;
  obs::Histogram& h = obs::histogram("test.obs.sharded_hist");
  h.reset();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t v = 0; v < 100; ++v) {
        h.record(v + static_cast<std::uint64_t>(t) * 100);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 800u);
  EXPECT_EQ(s.sum, 799u * 800u / 2);  // 0 + 1 + ... + 799
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 799u);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, 800u);
}

TEST(ObsMetrics, HistogramBucketsFollowThePowerOfTwoLayout) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(7), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(8), 4u);
  EXPECT_EQ(obs::Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_floor(4), 8u);

  const MetricsOn on;
  obs::Histogram& h = obs::histogram("test.obs.bucket_hist");
  h.reset();
  h.record(0);
  h.record(7);
  h.record(8);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.buckets[4], 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(ObsMetrics, SnapshotAndExportsCoverRegisteredMetrics) {
  const MetricsOn on;
  obs::counter("test.obs.export_counter").reset();
  obs::counter("test.obs.export_counter").add(3);
  obs::histogram("test.obs.export_hist").reset();
  obs::histogram("test.obs.export_hist").record(9);

  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  bool saw_counter = false, saw_hist = false;
  for (const auto& row : snap.counters) {
    if (row.name == "test.obs.export_counter") {
      saw_counter = true;
      EXPECT_EQ(row.value, 3u);
    }
  }
  for (const auto& row : snap.histograms) {
    if (row.name == "test.obs.export_hist") {
      saw_hist = true;
      EXPECT_EQ(row.hist.count, 1u);
      EXPECT_EQ(row.hist.sum, 9u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);

  const std::string json = obs::metrics_json();
  EXPECT_NE(json.find("\"test.obs.export_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.export_hist\""), std::string::npos);
  const std::string summary = obs::metrics_summary();
  EXPECT_NE(summary.find("test.obs.export_counter"), std::string::npos);
}

TEST(ObsForest, RefineWaveCountsMatchGroundTruth) {
  const MetricsOn on;
  obs::Counter& waves = obs::counter("forest.refine.waves");

  // Uniform L0 -> recursive refine-everything to L2: wave 1 splits the
  // root, wave 2 splits all four L1 children, wave 3 finds nothing and is
  // not counted.
  std::uint64_t waves0 = waves.value();
  auto f = Forest<R2>::new_uniform(Connectivity::unit(2), 0);
  f.refine(true, [](tree_id_t, const R2::quad_t& q) {
    return R2::level(q) < 2;
  });
  EXPECT_EQ(f.num_quadrants(), 16);
  EXPECT_EQ(waves.value() - waves0, 2u);

  // Uniform L3 (64 leaves) -> recursively refine only the origin-corner
  // quadrant to L6: every wave marks exactly one leaf, the first among all
  // 64, each later one among the previous wave's four children.
  waves0 = waves.value();
  auto g = Forest<R2>::new_uniform(Connectivity::unit(2), 3);
  g.refine(true, [](tree_id_t, const R2::quad_t& q) {
    return R2::level(q) < 6 && R2::level_index(q) == 0;
  });
  EXPECT_EQ(g.num_quadrants(), 64 + 3 * 3);
  EXPECT_EQ(waves.value() - waves0, 3u);
}

TEST(ObsForest, RecursiveRefineIgnoresChunkGrain) {
  // Drive the same recursive refinement once with a tiny grain (every
  // wave's mark and apply span many chunks) and once with a huge grain
  // (one chunk) and demand identical leaves and payloads.
  const std::size_t prev_grain = chunk_grain();
  const auto build = [](std::size_t grain) {
    set_chunk_grain(grain);
    auto f = Forest<R2>::new_uniform(Connectivity::unit(2), 3);
    f.enable_payload();
    for (std::size_t i = 0; i < f.tree_quadrants(0).size(); ++i) {
      f.payload(0, i) = 1000 + i;
    }
    f.refine(true, [](tree_id_t, const R2::quad_t& q) {
      return R2::level(q) < 6 && R2::level_index(q) % 23 == 0;
    });
    return f;
  };
  const auto parallel = build(3);
  const auto serial = build(std::size_t{1} << 20);
  set_chunk_grain(prev_grain);

  ASSERT_EQ(parallel.num_quadrants(), serial.num_quadrants());
  EXPECT_TRUE(parallel.tree_quadrants(0) == serial.tree_quadrants(0));
  EXPECT_TRUE(parallel.tree_payloads(0) == serial.tree_payloads(0));
  EXPECT_TRUE(parallel.is_valid());
}

TEST(ObsForest, CoarsenFamilyDecisionsMatchGroundTruth) {
  const MetricsOn on;
  obs::Counter& accepted = obs::counter("forest.coarsen.families_accepted");
  obs::Counter& rejected = obs::counter("forest.coarsen.families_rejected");

  // Uniform L2 (16 leaves, 4 complete sibling families). Accept-all
  // coarsens every family; reject-all inspects the same four and keeps
  // the mesh.
  const std::uint64_t accepted0 = accepted.value();
  auto f = Forest<R2>::new_uniform(Connectivity::unit(2), 2);
  f.coarsen(false, [](tree_id_t, const R2::quad_t*) { return true; });
  EXPECT_EQ(f.num_quadrants(), 4);
  EXPECT_EQ(accepted.value() - accepted0, 4u);

  const std::uint64_t rejected0 = rejected.value();
  auto g = Forest<R2>::new_uniform(Connectivity::unit(2), 2);
  g.coarsen(false, [](tree_id_t, const R2::quad_t*) { return false; });
  EXPECT_EQ(g.num_quadrants(), 16);
  EXPECT_EQ(rejected.value() - rejected0, 4u);
}

TEST(ObsPar, MessageCountersMatchGroundTruth) {
  const MetricsOn on;
  obs::Counter& sends = obs::counter("par.msg.sends");
  obs::Counter& send_bytes = obs::counter("par.msg.send_bytes");
  obs::Counter& recvs = obs::counter("par.msg.recvs");
  obs::Counter& recv_bytes = obs::counter("par.msg.recv_bytes");
  obs::Counter& unexpected = obs::counter("par.msg.unexpected_hits");
  const std::uint64_t sends0 = sends.value();
  const std::uint64_t send_bytes0 = send_bytes.value();
  const std::uint64_t recvs0 = recvs.value();
  const std::uint64_t recv_bytes0 = recv_bytes.value();
  const std::uint64_t unexpected0 = unexpected.value();

  // Rank 0 posts tag 1 (3 bytes) then tag 2 (5 bytes); rank 1 receives
  // tag 2 first, so the tag-1 message is dequeued, parked on the
  // unexpected list, and satisfied from there by the later receive: two
  // sends, two mailbox dequeues, exactly one unexpected hit.
  par::RankGroup group(2);
  group.run([](par::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.isend(1, 1, std::vector<std::uint8_t>(3, 0xAB));
      ctx.isend(1, 2, std::vector<std::uint8_t>(5, 0xCD));
    } else {
      const par::Message second = ctx.recv(0, 2);
      EXPECT_EQ(second.bytes.size(), 5u);
      const par::Message first = ctx.recv(0, 1);
      EXPECT_EQ(first.bytes.size(), 3u);
    }
  });
  EXPECT_EQ(sends.value() - sends0, 2u);
  EXPECT_EQ(send_bytes.value() - send_bytes0, 8u);
  EXPECT_EQ(recvs.value() - recvs0, 2u);
  EXPECT_EQ(recv_bytes.value() - recv_bytes0, 8u);
  EXPECT_EQ(unexpected.value() - unexpected0, 1u);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::set_tracing(false);
  const std::size_t before = obs::trace_event_count();
  {
    obs::TraceSpan span("test", "disabled");
    span.arg("x", 1);
  }
  obs::trace_complete("test", "disabled_manual", 0, 10);
  EXPECT_EQ(obs::trace_event_count(), before);
}

TEST(ObsTrace, SpansNestAndExportAsChromeJson) {
  obs::clear_trace();
  obs::set_tracing(true);
  {
    obs::TraceSpan outer("test", "outer");
    outer.arg("leaves", 64);
    obs::TraceSpan inner("test", "inner");
  }
  obs::trace_complete("test", "manual", obs::trace_clock_ns() - 500,
                      obs::trace_clock_ns(), "overlap", 1);
  obs::set_tracing(false);

  EXPECT_EQ(obs::trace_event_count(), 3u);
  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"manual\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"leaves\":64"), std::string::npos);
  EXPECT_NE(json.find("\"overlap\":1"), std::string::npos);
  obs::clear_trace();
}

TEST(ObsTrace, ConcurrentEmittersFillChunksWithoutLoss) {
  obs::clear_trace();
  obs::set_tracing(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 700;  // crosses the 512-event chunk boundary
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        obs::TraceSpan span("test", "worker_span");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  obs::set_tracing(false);
  EXPECT_EQ(obs::trace_event_count(),
            static_cast<std::size_t>(kThreads) * kSpans);
  obs::clear_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsTrace, RankWorkersStampTheirRankAsTid) {
  obs::clear_trace();
  obs::set_tracing(true);
  par::RankGroup group(2);
  group.run([](par::RankCtx& ctx) {
    obs::TraceSpan span("test", "rank_span");
    span.arg("rank", ctx.rank());
  });
  obs::set_tracing(false);
  EXPECT_EQ(obs::trace_event_count(), 2u);
  const std::string json = obs::trace_json();
  // Rank workers carry their rank id as the Perfetto tid (and get "rank
  // N" thread-name metadata); synthetic thread ids start at 1000.
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  obs::clear_trace();
}

TEST(ObsLog, ThreadRankScopeNestsAndRestores) {
  EXPECT_EQ(thread_rank(), -1);
  {
    const ThreadRankScope outer(3);
    EXPECT_EQ(thread_rank(), 3);
    {
      const ThreadRankScope inner(7);
      EXPECT_EQ(thread_rank(), 7);
    }
    EXPECT_EQ(thread_rank(), 3);
  }
  EXPECT_EQ(thread_rank(), -1);
}

}  // namespace
}  // namespace qforest
