#pragma once
/// \file core_sweep.hpp
/// \brief The core-layer sweep: the six scalar ops of the paper's
/// Figures 2-7 and six level-uniform BatchOps<R> kernels over one set of
/// quadrants, in cache blocks, with a per-op clock for the traced run.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/batch_ops.hpp"
#include "core/canonical.hpp"
#include "forest/connectivity.hpp"
#include "span_log.hpp"
#include "workload.hpp"

namespace qfb {

using qforest::morton_t;
using qforest::bench::WorkItem;

/// Fold a quadrant's bytes into a sink (every shipped quad_t is padding-
/// free, so the bytes are deterministic).
template <class Q>
inline void fold(std::uint64_t& sink, const Q& q) {
  std::array<std::uint64_t, (sizeof(Q) + 7) / 8> w{};
  std::memcpy(w.data(), &q, sizeof(Q));
  for (const std::uint64_t v : w) {
    sink = (sink << 1 | sink >> 63) ^ v;
  }
}

/// Keep a kernel's output buffer observable without reading all of it.
template <class T>
inline void touch(std::uint64_t& sink, const T* out, std::size_t n) {
  asm volatile("" : : "r"(out) : "memory");
  if (n != 0) {
    fold(sink, out[0]);
    fold(sink, out[n - 1]);
  }
}

inline constexpr std::size_t kCoreOps = 12;

/// Quadrants per cache block. The sweep applies all twelve ops to one
/// block before it moves to the next, so the block's inputs and outputs
/// (at most about 320 KiB) stay in the core's own L2 and the step measures
/// the ops, not how much of the shared L3 and memory bandwidth other
/// processes on the host leave free.
inline constexpr std::size_t kBlock = 4096;

/// One quadrant set prepared for the sweep: per-item inputs for the
/// scalar ops plus a copy grouped by (level, interior face) — the level-
/// uniform spans the batch kernels require.
template <class R>
struct CoreSet {
  using quad_t = typename R::quad_t;
  struct Range {
    int level;
    int face;  ///< -1 for a whole-level range
    std::size_t begin;
    std::size_t end;
  };
  /// At most kBlock quadrants of one level of `grouped`, and the
  /// [face_begin, face_end) entries of `face_pieces` that split it by face.
  struct Block {
    Range level;
    std::size_t face_begin;
    std::size_t face_end;
  };

  std::vector<WorkItem> items;
  std::vector<quad_t> quads;     ///< parallel to items
  std::vector<quad_t> grouped;   ///< quads ordered by (level, face)
  std::vector<morton_t> grouped_index;  ///< level index, parallel to grouped
  std::vector<Range> levels;     ///< whole-level ranges of grouped
  std::vector<Range> faces;      ///< (level, face) ranges of grouped
  std::vector<Block> blocks;     ///< levels cut into cache blocks
  std::vector<Range> face_pieces;  ///< faces cut at the block boundaries
  std::vector<quad_t> out;
  std::vector<std::int64_t> ox, oy, oz;
  /// Nanoseconds per op of the last sweep, summed over its blocks; only
  /// filled while the span log is on.
  std::array<std::int64_t, kCoreOps> op_ns{};

  static CoreSet build(std::vector<WorkItem> items_in) {
    CoreSet s;
    s.items = std::move(items_in);
    s.quads = qforest::bench::Workload<R>::build(s.items).quads;
    constexpr int kFaceIds = 6;
    int max_level = 0;
    for (const WorkItem& it : s.items) {
      max_level = std::max<int>(max_level, it.level);
    }
    const std::size_t keys = static_cast<std::size_t>(max_level + 1) * kFaceIds;
    std::vector<std::size_t> start(keys + 1, 0);
    for (const WorkItem& it : s.items) {
      ++start[static_cast<std::size_t>(it.level) * kFaceIds + it.interior_face + 1];
    }
    for (std::size_t k = 1; k <= keys; ++k) {
      start[k] += start[k - 1];
    }
    s.grouped.resize(s.items.size());
    s.grouped_index.resize(s.items.size());
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      const WorkItem& it = s.items[i];
      const std::size_t slot =
          cursor[static_cast<std::size_t>(it.level) * kFaceIds + it.interior_face]++;
      s.grouped[slot] = s.quads[i];
      s.grouped_index[slot] = it.level_index;
    }
    for (int l = 0; l <= max_level; ++l) {
      const std::size_t lb = start[static_cast<std::size_t>(l) * kFaceIds];
      const std::size_t le = start[static_cast<std::size_t>(l + 1) * kFaceIds];
      if (le > lb) {
        s.levels.push_back({l, -1, lb, le});
      }
      for (int f = 0; f < kFaceIds; ++f) {
        const std::size_t k = static_cast<std::size_t>(l) * kFaceIds + f;
        if (start[k + 1] > start[k]) {
          s.faces.push_back({l, f, start[k], start[k + 1]});
        }
      }
    }
    for (const Range& lv : s.levels) {
      for (std::size_t b = lv.begin; b < lv.end; b += kBlock) {
        const std::size_t e = std::min(lv.end, b + kBlock);
        Block blk{{lv.level, -1, b, e}, s.face_pieces.size(), 0};
        for (const Range& fr : s.faces) {
          if (fr.level == lv.level && fr.begin < e && fr.end > b) {
            s.face_pieces.push_back(
                {fr.level, fr.face, std::max(fr.begin, b), std::min(fr.end, e)});
          }
        }
        blk.face_end = s.face_pieces.size();
        s.blocks.push_back(blk);
      }
    }
    s.out.resize(kBlock);
    s.ox.resize(kBlock);
    s.oy.resize(kBlock);
    s.oz.resize(kBlock);
    return s;
  }

  /// Work items describing a forest's leaves: the child/sibling id cycles
  /// with the index and the face is the first interior one (as in the
  /// paper workload), so every op has a defined result.
  template <class F>
  static std::vector<WorkItem> items_of(const F& forest) {
    std::vector<WorkItem> items;
    items.reserve(static_cast<std::size_t>(forest.num_quadrants()));
    for (qforest::tree_id_t t = 0; t < forest.num_trees(); ++t) {
      for (const quad_t& q : forest.tree_quadrants(t)) {
        WorkItem it{};
        it.level = static_cast<std::uint8_t>(R::level(q));
        it.level_index = R::level_index(q);
        it.child = static_cast<std::uint8_t>(items.size() % 8);
        it.face = static_cast<std::uint8_t>(items.size() % 6);
        it.interior_face = 1;
        if (it.level > 0) {
          int tb[3];
          R::tree_boundaries(q, tb);
          for (int k = 0; k < 6; ++k) {
            const int f = (it.face + k) % 6;
            if (tb[f >> 1] != f) {
              it.interior_face = static_cast<std::uint8_t>(f);
              break;
            }
          }
        }
        items.push_back(it);
      }
    }
    return items;
  }
};

/// Op names of the sweep, in sweep order (also the metric stems).
inline constexpr std::array<const char*, kCoreOps> kCoreOpNames = {
    "core.morton_quadrant",   "core.child",
    "core.face_neighbor",     "core.parent",
    "core.sibling",           "core.tree_boundaries",
    "core.batch.child",       "core.batch.parent",
    "core.batch.sibling",     "core.batch.face_neighbor",
    "core.batch.neighbor_offset", "core.batch.morton_quadrant"};

/// Per-op clock of a blocked sweep: lap(op) charges the time since the
/// previous lap to op. Off (no clock reads) unless the span log is on.
class OpClock {
 public:
  explicit OpClock(std::array<std::int64_t, kCoreOps>& acc)
      : acc_(acc), on_(span_log().enabled()) {
    acc_.fill(0);
  }
  void start() {
    if (on_) {
      t_ = qforest::obs::trace_clock_ns();
    }
  }
  void lap(std::size_t op) {
    if (on_) {
      const std::int64_t now = qforest::obs::trace_clock_ns();
      acc_[op] += now - t_;
      t_ = now;
    }
  }

 private:
  std::array<std::int64_t, kCoreOps>& acc_;
  bool on_;
  std::int64_t t_ = 0;
};

/// One sweep of all twelve ops, block by block (kBlock); returns the
/// representation-native sink. The six scalar ops run over the items in
/// their original order, the six batch kernels over the level-grouped
/// copy. One span covers each half; per-op times go to s.op_ns.
template <class R>
std::uint64_t core_sweep(CoreSet<R>& s) {
  using B = qforest::BatchOps<R>;
  std::uint64_t sink = 0;
  OpClock clock(s.op_ns);
  const std::size_t n = s.quads.size();
  const auto& it = s.items;
  const auto& q = s.quads;
  {
    const Span sp("core.scalar_ops");
    for (std::size_t b = 0; b < n; b += kBlock) {
      const std::size_t e = std::min(n, b + kBlock);
      clock.start();
      for (std::size_t i = b; i < e; ++i) {
        fold(sink, R::morton_quadrant(it[i].level_index, it[i].level));
      }
      clock.lap(0);
      for (std::size_t i = b; i < e; ++i) {
        fold(sink, R::child(q[i], it[i].child));
      }
      clock.lap(1);
      for (std::size_t i = b; i < e; ++i) {
        fold(sink, R::face_neighbor(q[i], it[i].interior_face));
      }
      clock.lap(2);
      for (std::size_t i = b; i < e; ++i) {
        if (it[i].level > 0) {
          fold(sink, R::parent(q[i]));
        }
      }
      clock.lap(3);
      for (std::size_t i = b; i < e; ++i) {
        if (it[i].level > 0) {
          fold(sink, R::sibling(q[i], it[i].child));
        }
      }
      clock.lap(4);
      int tb[3];
      for (std::size_t i = b; i < e; ++i) {
        R::tree_boundaries(q[i], tb);
        sink ^= static_cast<std::uint64_t>(tb[0] + 1) |
                static_cast<std::uint64_t>(tb[1] + 1) << 8 |
                static_cast<std::uint64_t>(tb[2] + 1) << 16;
      }
      clock.lap(5);
    }
  }
  const auto* g = s.grouped.data();
  auto* out = s.out.data();
  {
    const Span sp("core.batch_ops");
    for (const auto& blk : s.blocks) {
      const auto& r = blk.level;
      const std::size_t m = r.end - r.begin;
      clock.start();
      B::child_uniform(g + r.begin, out, m, r.level % 8, r.level);
      touch(sink, out, m);
      clock.lap(6);
      if (r.level > 0) {
        B::parent_uniform(g + r.begin, out, m, r.level);
        touch(sink, out, m);
        clock.lap(7);
        B::sibling_uniform(g + r.begin, out, m, (r.level + 3) % 8, r.level);
        touch(sink, out, m);
        clock.lap(8);
        for (std::size_t k = blk.face_begin; k < blk.face_end; ++k) {
          const auto& fr = s.face_pieces[k];
          B::face_neighbor_uniform(g + fr.begin, out, fr.end - fr.begin,
                                   fr.face, fr.level);
          touch(sink, out, fr.end - fr.begin);
        }
        clock.lap(9);
      }
      B::neighbor_at_offset_n(g + r.begin, s.ox.data(), s.oy.data(),
                              s.oz.data(), m, 1, -1, 1, r.level);
      touch(sink, s.ox.data(), m);
      touch(sink, s.oz.data(), m);
      clock.lap(10);
      B::morton_quadrant_n(s.grouped_index.data() + r.begin, out, m, r.level);
      touch(sink, out, m);
      clock.lap(11);
    }
  }
  return sink;
}

/// Representation-independent digests of every op's results (outputs
/// mapped through to_canonical), one per op in sweep order. Exterior
/// results (the level-0 face neighbor) are left out: representations
/// encode outside-root quadrants differently.
template <class R>
std::array<std::uint64_t, kCoreOps> canonical_digests(const CoreSet<R>& s) {
  using B = qforest::BatchOps<R>;
  std::array<Digest, kCoreOps> d{};
  const auto add = [&](std::size_t op, const typename R::quad_t& r) {
    const qforest::CanonicalQuadrant c = qforest::to_canonical<R>(r);
    d[op].add(static_cast<std::uint64_t>(c.x));
    d[op].add(static_cast<std::uint64_t>(c.y));
    d[op].add(static_cast<std::uint64_t>(c.z));
    d[op].add(static_cast<std::uint64_t>(c.level));
  };
  const auto& it = s.items;
  for (std::size_t i = 0; i < s.quads.size(); ++i) {
    const auto& q = s.quads[i];
    add(0, R::morton_quadrant(it[i].level_index, it[i].level));
    add(1, R::child(q, it[i].child));
    if (it[i].level > 0) {
      add(2, R::face_neighbor(q, it[i].interior_face));
      add(3, R::parent(q));
      add(4, R::sibling(q, it[i].child));
    }
    int tb[3];
    R::tree_boundaries(q, tb);
    for (const int v : tb) {
      d[5].add(static_cast<std::uint64_t>(v));
    }
  }
  std::size_t widest = 0;
  for (const auto& r : s.levels) {
    widest = std::max(widest, r.end - r.begin);
  }
  std::vector<typename R::quad_t> out(widest);
  std::vector<std::int64_t> ox(widest), oy(widest), oz(widest);
  const auto* g = s.grouped.data();
  for (const auto& r : s.levels) {
    const std::size_t m = r.end - r.begin;
    B::child_uniform(g + r.begin, out.data(), m, r.level % 8, r.level);
    for (std::size_t i = 0; i < m; ++i) {
      add(6, out[i]);
    }
    if (r.level > 0) {
      B::parent_uniform(g + r.begin, out.data(), m, r.level);
      for (std::size_t i = 0; i < m; ++i) {
        add(7, out[i]);
      }
      B::sibling_uniform(g + r.begin, out.data(), m, (r.level + 3) % 8,
                         r.level);
      for (std::size_t i = 0; i < m; ++i) {
        add(8, out[i]);
      }
    }
    B::neighbor_at_offset_n(g + r.begin, ox.data(), oy.data(), oz.data(), m, 1,
                            -1, 1, r.level);
    for (std::size_t i = 0; i < m; ++i) {
      d[10].add(static_cast<std::uint64_t>(ox[i]));
      d[10].add(static_cast<std::uint64_t>(oy[i]));
      d[10].add(static_cast<std::uint64_t>(oz[i]));
    }
    B::morton_quadrant_n(s.grouped_index.data() + r.begin, out.data(), m,
                         r.level);
    for (std::size_t i = 0; i < m; ++i) {
      add(11, out[i]);
    }
  }
  for (const auto& r : s.faces) {
    if (r.level > 0) {
      const std::size_t m = r.end - r.begin;
      B::face_neighbor_uniform(g + r.begin, out.data(), m, r.face, r.level);
      for (std::size_t i = 0; i < m; ++i) {
        add(9, out[i]);
      }
    }
  }
  std::array<std::uint64_t, kCoreOps> h{};
  for (std::size_t k = 0; k < kCoreOps; ++k) {
    h[k] = d[k].h;
  }
  return h;
}

}  // namespace qfb
