#pragma once
/// \file span_log.hpp
/// \brief The benchmark's own span recorder, per-thread tallies and the
/// hashing helpers of its checks.
///
/// Spans wrap the benchmark's calls into the public qforest API (one span
/// per call). Each closed span is kept in memory with its parent, so a
/// layer's self time — its duration minus the part of that interval its
/// child spans cover — can be computed after the traced steps. Spans are
/// also forwarded to the obs Chrome trace (category "bench"), so they show
/// up next to the library's own spans in Perfetto.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace qfb {

/// One closed span. Name strings are literals (the obs trace keeps the
/// pointer).
struct SpanRec {
  int id;
  int parent;  ///< -1 for a root span
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  int next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(const SpanRec& r) {
    const std::lock_guard<std::mutex> lock(mutex_);
    recs_.push_back(r);
  }
  std::vector<SpanRec> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(recs_, {});
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int> next_id_{0};
  std::mutex mutex_;
  std::vector<SpanRec> recs_;
};

inline SpanLog& span_log() {
  static SpanLog log;
  return log;
}

inline int& current_span() {
  thread_local int id = -1;
  return id;
}

/// RAII span around one call. Off (one relaxed load) unless the span log
/// is enabled. Spans opened on another thread (the exchange hooks run on
/// rank workers) name their parent explicitly.
class Span {
 public:
  static constexpr int kInherit = -2;

  explicit Span(const char* name, int parent = kInherit)
      : name_(name), on_(span_log().enabled()) {
    if (!on_) {
      return;
    }
    id_ = span_log().next_id();
    parent_ = parent == kInherit ? current_span() : parent;
    saved_ = current_span();
    current_span() = id_;
    start_ns_ = qforest::obs::trace_clock_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (!on_) {
      return;
    }
    const std::int64_t end = qforest::obs::trace_clock_ns();
    current_span() = saved_;
    span_log().add({id_, parent_, name_, start_ns_, end});
    qforest::obs::trace_complete("bench", name_, start_ns_, end);
  }
  [[nodiscard]] int id() const { return on_ ? id_ : -1; }

 private:
  const char* name_;
  bool on_;
  int id_ = -1;
  int parent_ = -1;
  int saved_ = -1;
  std::int64_t start_ns_ = 0;
};

/// Self time per span name, summed: each span's duration minus the union
/// of its children's intervals clipped to its own.
inline std::map<std::string, double> self_seconds(
    const std::vector<SpanRec>& recs) {
  std::unordered_map<int, std::vector<std::pair<std::int64_t, std::int64_t>>>
      kids;
  for (const SpanRec& r : recs) {
    if (r.parent >= 0) {
      kids[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (const SpanRec& r : recs) {
    std::int64_t covered = 0;
    if (auto it = kids.find(r.id); it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0;
      std::int64_t hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, r.start_ns);
        b = std::min(b, r.end_ns);
        if (b <= a) {
          continue;
        }
        if (a > hi) {
          covered += hi > lo ? hi - lo : 0;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi > lo ? hi - lo : 0;
    }
    out[r.name] += static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return out;
}

/// Per-thread accumulators for callbacks the forest runs concurrently.
/// Each thread owns one padded slot and is its only writer, so an add is
/// a plain load + store; threads beyond the slot count share an overflow
/// slot with atomic adds. Sums are exact once the parallel call returned.
class Tally {
 public:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::size_t kFields = 4;

  void add(std::size_t field, std::uint64_t n) {
    const std::size_t s = slot();
    std::atomic<std::uint64_t>& c = slots_[s].v[field];
    if (s + 1 < kSlots) {
      c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    } else {
      c.fetch_add(n, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t sum(std::size_t field) const {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.v[field].load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (Slot& s : slots_) {
      for (auto& c : s.v) {
        c.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kFields> v{};
  };
  static std::size_t slot() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t id =
        std::min(next.fetch_add(1, std::memory_order_relaxed), kSlots - 1);
    return id;
  }
  std::array<Slot, kSlots> slots_{};
};

inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Order-dependent digest of a word sequence.
struct Digest {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  void add(std::uint64_t v) { h = mix64(h ^ v) + 0x632BE59BD9B4E019ULL; }
};

}  // namespace qfb
