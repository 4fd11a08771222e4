#pragma once
/// \file metrics.hpp
/// \brief Named counters and histograms: the qforest metrics registry.
///
/// Always-compiled, runtime-gated production metrics. A disabled metric
/// costs one relaxed atomic load and a predictable branch; an enabled one
/// costs one relaxed fetch_add on a thread-sharded, cacheline-padded cell,
/// so hot loops (chunk workers, mailbox pushes) can keep their counters
/// inline. Shards are merged only at snapshot time.
///
/// Naming convention: `layer.component.event`, e.g.
/// `forest.refine.waves`, `par.msg.send_bytes`, `io.exchange.rounds`.
/// Metrics are registered on first use and live for the process lifetime:
///
/// \code
///   static obs::Counter& c = obs::counter("forest.refine.waves");
///   c.add(1);
/// \endcode
///
/// Gate: `QFOREST_METRICS=1` in the environment or `set_metrics(true)`.
/// Export: `metrics_json()` (embedded in BENCH_*.json records) and
/// `metrics_summary()` (human util/table rendering).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qforest::obs {

namespace detail {

/// Global metrics gate. Set at load time from QFOREST_METRICS (see
/// metrics.cpp) and at runtime via set_metrics().
inline std::atomic<bool> g_metrics_enabled{false};

/// Small dense per-thread index used to pick a shard; threads hash onto
/// shards modulo the shard count, so contention stays bounded without
/// per-thread registration.
std::uint32_t metric_thread_slot();

}  // namespace detail

/// True when metric recording is on. One relaxed load; safe to call from
/// any thread at any time.
inline bool metrics_enabled() {
  // mo: relaxed — gate flag; callers only branch, no data is published
  // through it.
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turn metric recording on or off. Counts accumulated so far are kept;
/// use reset_metrics() to zero them.
void set_metrics(bool on);

/// Monotonic counter, sharded over cacheline-padded atomic cells so
/// concurrent writers on different threads do not bounce one line.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  /// Add \p n to the counter. No-op while metrics are disabled.
  void add(std::uint64_t n = 1) {
    if (!metrics_enabled()) {
      return;
    }
    // mo: relaxed — sharded statistic; merged only at snapshot time.
    shards_[detail::metric_thread_slot() % kShards].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over all shards (relaxed; exact once writers are quiescent).
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    // mo: relaxed — statistics merge; exact once writers are quiescent.
    for (const Cell& c : shards_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zero every shard.
  void reset() {
    // mo: relaxed — statistics reset; callers ensure writer quiescence.
    for (Cell& c : shards_) {
      c.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kShards> shards_{};
};

/// Merged view of one histogram: count/sum/min/max plus power-of-two
/// buckets (bucket 0 holds the value 0, bucket b >= 1 holds values in
/// [2^(b-1), 2^b)).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 64;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Bucketed histogram of non-negative integer samples (sizes, depths,
/// nanoseconds). Same sharding scheme as Counter; shard data is merged
/// into a HistogramSnapshot only when read.
class Histogram {
 public:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  /// Record one sample. No-op while metrics are disabled.
  void record(std::uint64_t v) {
    if (!metrics_enabled()) {
      return;
    }
    Shard& s = shards_[detail::metric_thread_slot() % kShards];
    // mo: relaxed — sharded statistics; merged only at snapshot time.
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    fold_min(s.min, v);
    fold_max(s.max, v);
  }

  /// Merge every shard into one snapshot (relaxed; exact once writers
  /// are quiescent).
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Zero every shard.
  void reset();

  /// Bucket index for a sample: 0 for v == 0, floor(log2(v)) + 1 else.
  static std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) {
      return 0;
    }
    std::size_t b = 0;
    while (v >>= 1) {
      ++b;
    }
    return b + 1;
  }

  /// Inclusive lower bound of values landing in \p bucket.
  static std::uint64_t bucket_floor(std::size_t bucket) {
    return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };

  // mo: relaxed (fold_min/fold_max) — monotone min/max fold via CAS;
  // the loop re-reads on failure, so no ordering is required.
  static void fold_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void fold_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    // mo: relaxed — monotone max fold; see fold_min.
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<Shard, kShards> shards_{};
};

/// Look up (registering on first use) the counter named \p name. The
/// returned reference is stable for the process lifetime; cache it in a
/// function-local static at the call site. \p name must outlive the
/// registry — pass a string literal.
Counter& counter(const char* name);

/// Look up (registering on first use) the histogram named \p name. Same
/// lifetime contract as counter().
Histogram& histogram(const char* name);

/// Point-in-time view of every registered metric, name-sorted.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value;
  };
  struct HistogramRow {
    std::string name;
    HistogramSnapshot hist;
  };
  std::vector<CounterRow> counters;
  std::vector<HistogramRow> histograms;
};

/// Snapshot every registered metric (including zero-valued ones).
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// The snapshot as one JSON object:
/// `{"counters":{name:value,...},"histograms":{name:{count,sum,min,max,
/// mean,buckets:[[floor,count],...]},...}}`. Suitable for embedding as a
/// raw value in a BENCH_*.json record.
[[nodiscard]] std::string metrics_json();

/// The snapshot rendered as human-readable util/table text (counters
/// table then histograms table). Zero-count metrics are omitted.
[[nodiscard]] std::string metrics_summary();

/// Zero every registered metric (registration itself is permanent).
void reset_metrics();

}  // namespace qforest::obs
