#pragma once
/// \file io.hpp
/// \brief Forest serialization and representation-independent checksums
/// (the p4est_save / p4est_load / p4est_checksum trio).
///
/// The on-disk format encodes quadrants in *canonical* form (canonical.hpp),
/// which makes it independent of the in-memory representation: a forest
/// saved from MortonRep can be loaded into StandardRep bit-exactly. The
/// checksum hashes the same canonical stream, so equal meshes hash equally
/// regardless of encoding — the property regression suites rely on.
///
/// Format (little-endian):
///   magic   "QFOR"            4 bytes
///   version u32               currently 1
///   dim     u32
///   brick   extent[3] u32, periodic[3] u8, pad u8
///   ranks   u32
///   trees   u32 K
///   per tree: count u64, then count * (x i64, y i64, z i64, level u8)

#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/canonical.hpp"
#include "forest/forest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/message_queue.hpp"
#include "util/timer.hpp"

namespace qforest {

namespace io_detail {

inline constexpr char kMagic[4] = {'Q', 'F', 'O', 'R'};
inline constexpr std::uint32_t kVersion = 1;

template <class T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <class T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) {
    throw std::runtime_error("qforest::load_forest: truncated stream");
  }
  return v;
}

/// FNV-1a, 64-bit; simple, stable, good avalanche for regression hashes.
class Fnv1a {
 public:
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ull;
    }
  }

  template <class T>
  void update_pod(const T& v) {
    update(&v, sizeof v);
  }

  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// Bulk byte-buffer framing for in-process rank messages: the memcpy
/// twin of write_pod/read_pod over a growable std::vector<uint8_t>
/// instead of a stream. Arrays are length-prefixed (u64 count) and
/// copied in one append, so serializing a rank's whole ghost payload
/// block is one allocation and two memcpys, not a per-entry loop.
class ByteWriter {
 public:
  template <class T>
  void write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof v);
  }

  template <class T>
  void write_array(const T* data, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(static_cast<std::uint64_t>(n));
    append(data, n * sizeof(T));
  }

  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  [[nodiscard]] std::vector<std::uint8_t> take() && {
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Read side of ByteWriter's framing; throws on truncated buffers.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  template <class T>
  [[nodiscard]] T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    copy_out(&v, sizeof v);
    return v;
  }

  template <class T>
  [[nodiscard]] std::vector<T> read_array() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = static_cast<std::size_t>(read<std::uint64_t>());
    std::vector<T> out(n);
    copy_out(out.data(), n * sizeof(T));
    return out;
  }

 private:
  void copy_out(void* dst, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) {
      throw std::runtime_error("qforest::io: truncated message buffer");
    }
    if (n != 0) {  // an empty array's data() may be null: UB for memcpy
      std::memcpy(dst, p_, n);
    }
    p_ += n;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace io_detail

/// Serialize a forest; see the format comment above.
template <class R>
void save_forest(std::ostream& out, const Forest<R>& forest) {
  using namespace io_detail;
  out.write(kMagic, 4);
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint32_t>(R::dim));
  const Connectivity& conn = forest.connectivity();
  for (int a = 0; a < 3; ++a) {
    write_pod(out, static_cast<std::uint32_t>(conn.extent(a)));
  }
  for (int a = 0; a < 3; ++a) {
    write_pod(out, static_cast<std::uint8_t>(conn.periodic(a) ? 1 : 0));
  }
  write_pod(out, std::uint8_t{0});
  write_pod(out, static_cast<std::uint32_t>(forest.num_ranks()));
  write_pod(out, static_cast<std::uint32_t>(forest.num_trees()));
  for (tree_id_t t = 0; t < forest.num_trees(); ++t) {
    const auto& leaves = forest.tree_quadrants(t);
    write_pod(out, static_cast<std::uint64_t>(leaves.size()));
    for (const auto& q : leaves) {
      const CanonicalQuadrant c = to_canonical<R>(q);
      write_pod(out, c.x);
      write_pod(out, c.y);
      write_pod(out, c.z);
      write_pod(out, static_cast<std::uint8_t>(c.level));
    }
  }
  if (!out) {
    throw std::runtime_error("qforest::save_forest: write failure");
  }
}

/// Deserialize into representation \p R (not necessarily the one that
/// saved the stream). Throws std::runtime_error on malformed input and
/// std::invalid_argument when the stream's levels exceed R::max_level or
/// its connectivity is out of range (an extent below 1, or more trees than
/// tree_id_t holds).
template <class R>
Forest<R> load_forest(std::istream& in) {
  using namespace io_detail;
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("qforest::load_forest: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) {
    throw std::runtime_error("qforest::load_forest: unsupported version " +
                             std::to_string(version));
  }
  const auto dim = read_pod<std::uint32_t>(in);
  if (static_cast<int>(dim) != R::dim) {
    throw std::runtime_error("qforest::load_forest: dimension mismatch");
  }
  std::uint32_t extent[3];
  for (auto& e : extent) {
    e = read_pod<std::uint32_t>(in);
  }
  bool periodic[3];
  for (auto& p : periodic) {
    p = read_pod<std::uint8_t>(in) != 0;
  }
  (void)read_pod<std::uint8_t>(in);  // pad
  const auto ranks = read_pod<std::uint32_t>(in);
  const auto num_trees = read_pod<std::uint32_t>(in);

  Connectivity conn =
      R::dim == 2
          ? Connectivity::brick2d(static_cast<int>(extent[0]),
                                  static_cast<int>(extent[1]), periodic[0],
                                  periodic[1])
          : Connectivity::brick3d(static_cast<int>(extent[0]),
                                  static_cast<int>(extent[1]),
                                  static_cast<int>(extent[2]), periodic[0],
                                  periodic[1], periodic[2]);
  if (static_cast<std::uint32_t>(conn.num_trees()) != num_trees) {
    throw std::runtime_error("qforest::load_forest: tree count mismatch");
  }

  Forest<R> forest =
      Forest<R>::new_root(conn, static_cast<int>(ranks));
  // Rebuild each tree's leaf array from the canonical stream.
  std::vector<std::vector<typename R::quad_t>> trees(num_trees);
  for (std::uint32_t t = 0; t < num_trees; ++t) {
    const auto count = read_pod<std::uint64_t>(in);
    auto& tree = trees[t];
    for (std::uint64_t i = 0; i < count; ++i) {
      CanonicalQuadrant c;
      c.x = read_pod<std::int64_t>(in);
      c.y = read_pod<std::int64_t>(in);
      c.z = read_pod<std::int64_t>(in);
      c.level = read_pod<std::uint8_t>(in);
      if (c.level > R::max_level) {
        throw std::invalid_argument(
            "qforest::load_forest: level exceeds representation limit");
      }
      tree.push_back(from_canonical<R>(c));
    }
  }
  forest.replace_leaves(std::move(trees));
  if (!forest.is_valid()) {
    throw std::runtime_error("qforest::load_forest: stream does not encode "
                             "a valid forest");
  }
  return forest;
}

/// Representation-independent structural checksum: hashes dimension,
/// connectivity and every leaf in canonical form. Equal meshes give equal
/// checksums no matter the encoding (see tests/test_io.cpp).
template <class R>
std::uint64_t forest_checksum(const Forest<R>& forest) {
  io_detail::Fnv1a h;
  h.update_pod(static_cast<std::uint32_t>(R::dim));
  const Connectivity& conn = forest.connectivity();
  for (int a = 0; a < 3; ++a) {
    h.update_pod(static_cast<std::uint32_t>(conn.extent(a)));
    h.update_pod(static_cast<std::uint8_t>(conn.periodic(a) ? 1 : 0));
  }
  for (tree_id_t t = 0; t < forest.num_trees(); ++t) {
    for (const auto& q : forest.tree_quadrants(t)) {
      const CanonicalQuadrant c = to_canonical<R>(q);
      h.update_pod(c.x);
      h.update_pod(c.y);
      h.update_pod(c.z);
      h.update_pod(static_cast<std::uint8_t>(c.level));
    }
  }
  return h.digest();
}

// ------------------------------------------------- sharded ghost exchange

/// Message tags of the exchange protocol.
inline constexpr int kTagGhostRequest = 101;  ///< round 1: wanted indices
inline constexpr int kTagGhostData = 102;     ///< round 2: payload blocks

/// Knobs of exchange_ghost_payloads.
struct GhostExchangeOptions {
  /// Overlap interior computation with the in-flight exchange (post
  /// sends, compute interior, then wait for ghost data); false forces the
  /// post-then-wait serial order instead (the overlap ablation).
  bool overlap = true;

  /// Simulated interconnect latency per message (see Mailbox); 0 = none.
  std::chrono::microseconds delivery_delay{0};
};

/// Result of one sharded exchange: payloads[r][e] is the payload of rank
/// r's ghost entry e (aligned with ghosts[r].entries — the same contract
/// as Forest::ghost_exchange), plus each rank's wall time inside its
/// worker for per-rank scaling reports.
struct GhostExchangeResult {
  std::vector<std::vector<std::uint64_t>> payloads;
  std::vector<double> rank_seconds;
};

/// Batched asynchronous ghost-payload exchange across every simulated
/// rank of \p forest (the message-passing counterpart of the shared-
/// memory Forest::ghost_exchange reference).
///
/// Each rank worker runs a two-round protocol over its mailbox:
///   1. one *request* message per peer (possibly empty) listing the
///      global indices this rank's ghost layer needs from that owner, in
///      ghost-entry order;
///   2. on receipt of a peer's request, the owner serializes the wanted
///      payloads in bulk (ByteWriter: index array + value array, two
///      memcpys) and posts one *data* message back — one message per
///      (source, target) pair in each direction.
/// Then the overlap seam: with opt.overlap the rank runs \p interior
/// (ghost-independent computation, e.g. the interior side of
/// Forest::rank_work_split) while its data messages are still in flight
/// and drains them afterwards; without it the rank waits for all data
/// first (the overlap ablation). Either way \p boundary runs last with
/// the filled flat ghost buffer.
///
/// \p ghosts must hold ghost_layer(r) for every rank r of the forest and
/// the payload channel must be enabled.
template <class R, class InteriorFn, class BoundaryFn>
GhostExchangeResult exchange_ghost_payloads(
    const Forest<R>& forest, const std::vector<GhostLayer<R>>& ghosts,
    const GhostExchangeOptions& opt, InteriorFn&& interior,
    BoundaryFn&& boundary) {
  assert(forest.payload_enabled());
  const int p = forest.num_ranks();
  assert(static_cast<int>(ghosts.size()) == p);
  GhostExchangeResult res;
  res.payloads.resize(static_cast<std::size_t>(p));
  res.rank_seconds.assign(static_cast<std::size_t>(p), 0.0);
  for (int r = 0; r < p; ++r) {
    res.payloads[static_cast<std::size_t>(r)].resize(
        ghosts[static_cast<std::size_t>(r)].entries.size());
  }
  par::RankGroup group(p);
  group.set_delivery_delay(opt.delivery_delay);
  group.run([&](par::RankCtx& ctx) {
    const int r = ctx.rank();
    const auto& entries = ghosts[static_cast<std::size_t>(r)].entries;
    obs::TraceSpan exchange_span("io", "ghost.exchange");
    exchange_span.arg("ranks", p);
    exchange_span.arg("ghost_entries",
                      static_cast<std::int64_t>(entries.size()));
    static obs::Counter& c_rounds = obs::counter("io.exchange.rounds");
    static obs::Counter& c_drain_ns = obs::counter("io.exchange.drain_wait_ns");
    static obs::Histogram& h_req = obs::histogram("io.exchange.request_bytes");
    static obs::Histogram& h_data = obs::histogram("io.exchange.data_bytes");
    c_rounds.add(1);
    WallTimer timer;
    // Round 1: request lists per owner, in ghost-entry order (entries
    // are sorted by global index, so each owner's sublist is too — the
    // data blocks come back aligned with a plain per-owner cursor).
    std::vector<std::vector<gidx_t>> need(static_cast<std::size_t>(p));
    for (const auto& e : entries) {
      assert(e.owner != r);
      need[static_cast<std::size_t>(e.owner)].push_back(e.global_index);
    }
    {
      obs::TraceSpan post_span("io", "ghost.post");
      for (int s = 0; s < p; ++s) {
        if (s != r) {
          io_detail::ByteWriter w;
          const auto& idx = need[static_cast<std::size_t>(s)];
          w.write_array(idx.data(), idx.size());
          std::vector<std::uint8_t> bytes = std::move(w).take();
          h_req.record(bytes.size());
          ctx.isend(s, kTagGhostRequest, std::move(bytes));
        }
      }
    }
    // The in-flight window of this rank's exchange: from the last
    // request posted until the last data block drained. Emitted as its
    // own span so the overlap ablation is visible in the trace.
    const std::int64_t inflight_start_ns =
        obs::tracing_enabled() ? obs::trace_clock_ns() : 0;
    std::int64_t inflight_end_ns = 0;
    {
      obs::TraceSpan serve_span("io", "ghost.serve");
      // Round 2: serve the p-1 peer requests as they arrive.
      for (int k = 0; k + 1 < p; ++k) {
        par::Message m = ctx.recv(par::kAnySource, kTagGhostRequest);
        io_detail::ByteReader rd(m.bytes);
        const std::vector<gidx_t> wanted = rd.read_array<gidx_t>();
        std::vector<std::uint64_t> vals;
        vals.reserve(wanted.size());
        for (const gidx_t g : wanted) {
          const auto [t, i] = forest.locate(g);
          vals.push_back(forest.tree_payloads(t)[i]);
        }
        io_detail::ByteWriter w;
        w.write_array(wanted.data(), wanted.size());
        w.write_array(vals.data(), vals.size());
        std::vector<std::uint8_t> bytes = std::move(w).take();
        h_data.record(bytes.size());
        ctx.isend(m.source, kTagGhostData, std::move(bytes));
      }
    }
    // Receive the p-1 data blocks and scatter them into the flat ghost
    // buffer in entry order (per-owner cursors; indices echo back for
    // the alignment check).
    auto drain = [&] {
      WallTimer drain_timer;
      {
        obs::TraceSpan drain_span("io", "ghost.drain");
        std::vector<std::vector<gidx_t>> got_idx(static_cast<std::size_t>(p));
        std::vector<std::vector<std::uint64_t>> got(
            static_cast<std::size_t>(p));
        for (int k = 0; k + 1 < p; ++k) {
          par::Message m = ctx.recv(par::kAnySource, kTagGhostData);
          io_detail::ByteReader rd(m.bytes);
          const auto s = static_cast<std::size_t>(m.source);
          got_idx[s] = rd.read_array<gidx_t>();
          got[s] = rd.read_array<std::uint64_t>();
        }
        auto& out = res.payloads[static_cast<std::size_t>(r)];
        std::vector<std::size_t> cur(static_cast<std::size_t>(p), 0);
        for (std::size_t e = 0; e < entries.size(); ++e) {
          const auto s = static_cast<std::size_t>(entries[e].owner);
          assert(cur[s] < got[s].size() &&
                 got_idx[s][cur[s]] == entries[e].global_index &&
                 "ghost data block misaligned with ghost layer");
          out[e] = got[s][cur[s]++];
        }
      }
      inflight_end_ns = obs::tracing_enabled() ? obs::trace_clock_ns() : 0;
      if (obs::metrics_enabled()) {
        c_drain_ns.add(static_cast<std::uint64_t>(drain_timer.elapsed_ns()));
      }
    };
    if (opt.overlap) {
      {
        obs::TraceSpan interior_span("io", "ghost.interior");
        interior_span.arg("overlap", 1);
        interior(r);
      }
      drain();
    } else {
      drain();
      {
        obs::TraceSpan interior_span("io", "ghost.interior");
        interior_span.arg("overlap", 0);
        interior(r);
      }
    }
    if (obs::tracing_enabled() && inflight_end_ns > inflight_start_ns) {
      obs::trace_complete("io", "ghost.inflight", inflight_start_ns,
                          inflight_end_ns, "overlap", opt.overlap ? 1 : 0);
    }
    {
      obs::TraceSpan boundary_span("io", "ghost.boundary");
      boundary(r, res.payloads[static_cast<std::size_t>(r)]);
    }
    res.rank_seconds[static_cast<std::size_t>(r)] = timer.elapsed_s();
  });
  return res;
}

/// Convenience overload without compute hooks: just the exchange.
template <class R>
GhostExchangeResult exchange_ghost_payloads(
    const Forest<R>& forest, const std::vector<GhostLayer<R>>& ghosts,
    const GhostExchangeOptions& opt = {}) {
  return exchange_ghost_payloads(
      forest, ghosts, opt, [](int) {},
      [](int, const std::vector<std::uint64_t>&) {});
}

}  // namespace qforest
