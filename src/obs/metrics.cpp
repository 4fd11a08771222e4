#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>

#include "util/table.hpp"
#include "util/thread_annotations.hpp"

namespace qforest::obs {
namespace {

/// Name -> metric maps. Values are unique_ptrs so registered metrics keep
/// a stable address while the map rehashes/rebalances; the mutex guards
/// registration only — recording goes straight to the atomic shards.
struct Registry {
  /// Guards registration only — recording goes straight to the atomic
  /// shards. Top tier of the lock hierarchy (pool < mailbox <
  /// registry): nothing may be acquired while this is held.
  Mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters
      QF_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Histogram>> histograms
      QF_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry r;  // qf-allow(mutable-static): mutex-protected registry; metric cells are atomic
  return r;
}

/// Load-time gate init: QFOREST_METRICS=<non-empty, non-"0"> enables
/// metric recording from the first instruction of main().
const bool g_env_init = [] {
  const char* e = std::getenv("QFOREST_METRICS");  // NOLINT(concurrency-mt-unsafe)
  if (e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0')) {
    // mo: relaxed — gate flag set before main(); readers only branch.
    detail::g_metrics_enabled.store(true, std::memory_order_relaxed);
  }
  return true;
}();

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
}

}  // namespace

namespace detail {

std::uint32_t metric_thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  // mo: relaxed — unique-slot allocation; only atomicity is needed.
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

void set_metrics(bool on) {
  // mo: relaxed — gate flag; readers only branch on it.
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  std::uint64_t min_seen = ~std::uint64_t{0};
  // mo: relaxed (all shard reads) — statistics merge; exact once
  // writers are quiescent, approximate while they race — by design.
  for (const Shard& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    min_seen = std::min(min_seen, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  out.min = out.count == 0 ? 0 : min_seen;
  return out;
}

void Histogram::reset() {
  // mo: relaxed (all shard writes) — statistics reset; callers ensure
  // writer quiescence when an exact zero matters.
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) {
      b.store(0, std::memory_order_relaxed);
    }
  }
}

Counter& counter(const char* name) {
  Registry& r = registry();
  const LockGuard lock(r.mutex);
  auto& slot = r.counters[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Histogram& histogram(const char* name) {
  Registry& r = registry();
  const LockGuard lock(r.mutex);
  auto& slot = r.histograms[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snap;
  Registry& r = registry();
  const LockGuard lock(r.mutex);
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    snap.counters.push_back({name, c->value()});
  }
  snap.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    snap.histograms.push_back({name, h->snapshot()});
  }
  return snap;
}

std::string metrics_json() {
  const MetricsSnapshot snap = metrics_snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& row : snap.counters) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.push_back('"');
    append_json_escaped(out, row.name);
    out += "\":" + std::to_string(row.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& row : snap.histograms) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.push_back('"');
    append_json_escaped(out, row.name);
    out += "\":{\"count\":" + std::to_string(row.hist.count);
    out += ",\"sum\":" + std::to_string(row.hist.sum);
    out += ",\"min\":" + std::to_string(row.hist.min);
    out += ",\"max\":" + std::to_string(row.hist.max);
    char mean[48];
    std::snprintf(mean, sizeof(mean), "%.3f", row.hist.mean());
    out += ",\"mean\":";
    out += mean;
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (row.hist.buckets[b] == 0) {
        continue;
      }
      if (!first_bucket) {
        out.push_back(',');
      }
      first_bucket = false;
      out += "[" + std::to_string(Histogram::bucket_floor(b)) + "," +
             std::to_string(row.hist.buckets[b]) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string metrics_summary() {
  const MetricsSnapshot snap = metrics_snapshot();
  std::string out;
  Table counters({"counter", "value"});
  for (const auto& row : snap.counters) {
    if (row.value == 0) {
      continue;
    }
    counters.add_row({row.name,
                      Table::fmt(static_cast<long long>(row.value))});
  }
  if (counters.row_count() > 0) {
    out += counters.to_string();
  }
  Table hists({"histogram", "count", "sum", "min", "mean", "max"});
  for (const auto& row : snap.histograms) {
    if (row.hist.count == 0) {
      continue;
    }
    hists.add_row({row.name,
                   Table::fmt(static_cast<long long>(row.hist.count)),
                   Table::fmt(static_cast<long long>(row.hist.sum)),
                   Table::fmt(static_cast<long long>(row.hist.min)),
                   Table::fmt(row.hist.mean(), 1),
                   Table::fmt(static_cast<long long>(row.hist.max))});
  }
  if (hists.row_count() > 0) {
    if (!out.empty()) {
      out.push_back('\n');
    }
    out += hists.to_string();
  }
  if (out.empty()) {
    out = "(no metrics recorded)\n";
  }
  return out;
}

void reset_metrics() {
  Registry& r = registry();
  const LockGuard lock(r.mutex);
  for (auto& [name, c] : r.counters) {
    c->reset();
  }
  for (auto& [name, h] : r.histograms) {
    h->reset();
  }
}

}  // namespace qforest::obs
