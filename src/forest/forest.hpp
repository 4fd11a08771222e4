#pragma once
/// \file forest.hpp
/// \brief Forest of octrees: linear leaf storage + high-level AMR algorithms.
///
/// This is the p4est substrate the paper's quadrant representations plug
/// into: trees store only their leaves, sorted along the space-filling
/// curve ("linear octree", paper §2), and the high-level algorithms —
/// new/refine/coarsen/balance/partition/ghost/search/iterate — are written
/// once against the QuadrantRepresentation concept, so switching the
/// low-level encoding never touches this file. That is precisely the
/// abstraction the paper proposes ("to change between multiple sets of
/// quadrant representations ... using the same high-level algorithm").
///
/// Parallel semantics: the forest holds the global leaf sequence in shared
/// memory and maintains a partition of the global Morton order into
/// contiguous rank ranges (ARCHITECTURE.md, "The distributed layer",
/// explains this MPI substitution).
///
/// Bulk quadrant production (refine waves, coarsen family sweeps, balance
/// splitting) never calls the scalar per-quadrant ops directly: marked
/// leaves are staged into level-uniform spans and dispatched through
/// BatchOps<R> (core/batch_ops.hpp), so representations with SIMD batch
/// kernels consume them register-parallel while every other representation
/// takes the generic scalar loop. Refine waves, coarsen passes and balance
/// iterations rewrite the leaf arrays through one routine
/// (rewrite_leaves), driven by one edit byte per leaf. Balance
/// marking, the ghost/mirror scan and face iteration are three calls into
/// one neighbor-key sweep (neighbor_sweep); each operation has exactly one
/// algorithm here, and the per-quadrant reference algorithms the tests
/// compare against live in tests/forest_oracle.hpp.
///
/// Derived indexes: besides the leaf arrays the forest owns the tree
/// offsets, one 64-bit curve key per leaf (curve_key: the leaf's Morton
/// index truncated to level K, then its level) and one Morton-cell index
/// per tree (MarkGrid, whose cells are curve-key prefixes). Every
/// operation that changes leaves ends in reindex(), which rebuilds them;
/// the const read paths only borrow them, so a mesh that is read many
/// times between changes is indexed once. The sweep and point search
/// resolve keys with integer compares (curve_less), which fall back to
/// R::less only for two keys deeper than K in one level-K cell; the
/// public API (RepLess, find_enclosing_leaf) and is_valid() stay on
/// R::less. The rank adjacency (every rank's ghosts and mirrors) is built
/// lazily, by one sweep over the leaves a leaf of another rank could
/// touch, on the first ghost_layer / mirrors / rank_work_split after a
/// change of the mesh or of the partition; reindex() and every
/// repartition drop it, and a copy of the forest starts without it.
///
/// Scheduling is two-level: the per-tree outer loops of the adaptation
/// algorithms run on the shared forest thread pool (level 1), and within
/// each tree the hot passes — refine mark waves, the coarsen family
/// decision sweep, the balance mark passes (over every leaf, then over
/// the frontier each split leaves) and the leaf rewrite — cut the tree's
/// leaves into contiguous cache-sized chunks dispatched on the
/// same pool (level 2), so a single-tree forest (the common benchmark
/// shape) saturates every worker instead of leaving the pool idle. User
/// callbacks must therefore be safe to invoke concurrently — both for
/// different trees and for different leaf chunks of the same tree.
/// Callbacks that mutate shared state can opt out via
/// set_tree_parallelism(false) or the QFOREST_SERIAL_TREES environment
/// variable (disables BOTH levels); set_chunk_grain(SIZE_MAX) keeps trees
/// concurrent but runs each tree's passes as one chunk. Reentrant forest
/// operations from inside a chunk-level callback always run fully inline
/// (chunk workers never nest); reentrant operations from a tree-level
/// callback run their tree loop inline but may still chunk it — the
/// pool's helping wait makes nested dispatch deadlock-free.

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/batch_ops.hpp"
#include "core/bits.hpp"
#include "core/canonical.hpp"
#include "core/debug_check.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_wide.hpp"
#include "core/rep_traits.hpp"
#include "core/types.hpp"
#include "forest/connectivity.hpp"
#include "forest/point_query.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/communicator.hpp"
#include "par/thread_pool.hpp"
#include "util/thread_annotations.hpp"

namespace qforest {

namespace detail {
/// Worker pool shared by the per-tree and per-chunk loops of every Forest
/// instantiation; created on first use, sized to the hardware concurrency
/// unless QFOREST_THREADS overrides it.
inline par::ThreadPool& forest_pool() {
  static par::ThreadPool pool([] {
    if (const char* env =
            std::getenv("QFOREST_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
      const long v = std::atol(env);
      if (v > 0) {
        return static_cast<unsigned>(v);
      }
    }
    return 0u;  // ThreadPool default: hardware concurrency
  }());
  return pool;
}

/// Scheduling depth of the code currently running on this thread: 0 off
/// the pool, 1 inside a per-tree task, 2 inside an intra-tree chunk task.
/// The depth is a property of the *task*, not the thread — the pool's
/// helping wait executes queued tasks on waiting threads, so every task
/// wrapper scopes the depth itself (DepthScope). Reentrant forest
/// operations (a callback that adapts another forest) consult it: at
/// depth >= 1 the tree loop runs inline, at depth >= 2 chunk loops run
/// inline too, so chunk workers never nest.
inline int& worker_depth() {
  thread_local int depth = 0;
  return depth;
}

/// RAII depth marker for one pool task. No depth check here: the
/// executing thread's prior depth is arbitrary under the helping wait
/// (a thread waiting at depth 1 or 2 legitimately picks up queued tasks
/// of any level) — the scheduling invariant is asserted at the dispatch
/// decisions in parallel_over / parallel_chunks instead.
class DepthScope {
 public:
  explicit DepthScope(int depth) : saved_(worker_depth()) {
    worker_depth() = depth;
  }
  ~DepthScope() { worker_depth() = saved_; }
  DepthScope(const DepthScope&) = delete;
  DepthScope& operator=(const DepthScope&) = delete;

 private:
  int saved_;
};

/// Atomic with relaxed ordering: the switch may be flipped while a
/// parallel region runs (benches toggle it between timed phases);
/// workers only need *a* consistent value per load.
inline std::atomic<bool>& tree_parallel_flag() {
  static std::atomic<bool> flag{
      std::getenv("QFOREST_SERIAL_TREES") ==  // NOLINT(concurrency-mt-unsafe)
      nullptr};
  return flag;
}

/// Leaf count per intra-tree chunk task. The default is cache-sized:
/// large enough to amortize task submission over thousands of callback
/// evaluations, small enough that several chunks fit per worker for load
/// balancing.
inline constexpr std::size_t kDefaultChunkGrain = 4096;

inline std::atomic<std::size_t>& chunk_grain_value() {
  static std::atomic<std::size_t> value{[] {
    if (const char* env =
            std::getenv("QFOREST_CHUNK_GRAIN")) {  // NOLINT(concurrency-mt-unsafe)
      const long long v = std::atoll(env);
      if (v > 0) {
        return static_cast<std::size_t>(v);
      }
    }
    return kDefaultChunkGrain;
  }()};
  return value;
}

/// A derived index filled on its first read and dropped by the owner's
/// writes (reset). Const reads may race on the fill: each cold reader
/// builds, the first to publish wins and the others drop theirs (the
/// index is a pure function of the owner's state), so no lock is held
/// while a build runs on the forest pool. A reference returned by get()
/// stays valid until the next reset. Copies and moves start empty.
template <class T>
class LazyIndex {
 public:
  LazyIndex() = default;
  LazyIndex(const LazyIndex& /*other*/) {}
  LazyIndex(LazyIndex&& /*other*/) noexcept {}
  LazyIndex& operator=(const LazyIndex& /*other*/) {
    reset();
    return *this;
  }
  LazyIndex& operator=(LazyIndex&& /*other*/) noexcept {
    reset();
    return *this;
  }
  ~LazyIndex() = default;

  template <class Build>
  const T& get(Build&& build) const {
    {
      const LockGuard lock(index_mutex_);
      if (value_) {
        return *value_;
      }
    }
    auto built = std::make_unique<const T>(build());
    const LockGuard lock(index_mutex_);
    if (!value_) {
      value_ = std::move(built);
    }
    return *value_;
  }

  void reset() {
    const LockGuard lock(index_mutex_);
    value_.reset();
  }

 private:
  mutable Mutex index_mutex_;
  mutable std::unique_ptr<const T> value_ QF_GUARDED_BY(index_mutex_);
};
}  // namespace detail

/// Process-wide switch for the parallelism of refine / coarsen / balance.
/// Defaults to on; disable (or set the QFOREST_SERIAL_TREES environment
/// variable) when adaptation callbacks mutate shared state without
/// synchronization. Disabling turns off BOTH scheduling levels — the
/// per-tree loops and the intra-tree chunk loops.
inline void set_tree_parallelism(bool on) {
  // mo: relaxed — independent on/off switch; readers only branch on it.
  detail::tree_parallel_flag().store(on, std::memory_order_relaxed);
}
inline bool tree_parallelism() {
  // mo: relaxed — independent on/off switch; readers only branch on it.
  return detail::tree_parallel_flag().load(std::memory_order_relaxed);
}

/// Leaves per intra-tree chunk task (0 restores the default). Tests force
/// tiny grains to exercise chunk-boundary handling; QFOREST_CHUNK_GRAIN
/// sets the initial value. A grain no tree reaches (SIZE_MAX) turns the
/// chunk level off: trees still run concurrently, but each tree's passes
/// run as one inline chunk.
inline void set_chunk_grain(std::size_t grain) {
  // mo: relaxed — scheduling hint; any grain value is correct.
  detail::chunk_grain_value().store(
      grain == 0 ? detail::kDefaultChunkGrain : grain,
      std::memory_order_relaxed);
}
inline std::size_t chunk_grain() {
  // mo: relaxed — scheduling hint; any grain value is correct.
  return detail::chunk_grain_value().load(std::memory_order_relaxed);
}

// ------------------------------------------------------------- curve keys

/// Level K of a curve key's index: the deepest level whose Morton index
/// fits a 64-bit key beside the level field (19 in 3D, 29 in 2D).
template <int Dim>
inline constexpr int kCurveKeyLevel = Dim == 3 ? 19 : 29;

/// Bits of the level field at the bottom of a curve key.
inline constexpr int kCurveKeyLevelBits = 5;

/// Morton index, on the level-K grid, of the cell holding the canonical
/// point (x, y, z).
template <int Dim>
std::uint64_t curve_cell(std::int64_t x, std::int64_t y, std::int64_t z) {
  constexpr int down = kCanonicalLevel - kCurveKeyLevel<Dim>;
  if constexpr (Dim == 3) {
    return bits::interleave3(static_cast<std::uint32_t>(x >> down),
                             static_cast<std::uint32_t>(y >> down),
                             static_cast<std::uint32_t>(z >> down));
  } else {
    (void)z;
    return bits::interleave2(static_cast<std::uint32_t>(x >> down),
                             static_cast<std::uint32_t>(y >> down));
  }
}

/// The 64-bit curve key of \p q: the Morton index of its lower corner on
/// the level-K grid, shifted left by kCurveKeyLevelBits and OR-ed with
/// min(level, K). Keys order quadrants as R::less does, ancestors first,
/// except that two quadrants K or more levels deep in the same level-K
/// cell share a key; curve_less breaks that tie with R::less. The raw
/// Morton representations read the key off their own index bits; the
/// others interleave the truncated canonical coordinates. Precondition:
/// R::is_valid(q) and R::inside_root(q).
template <class R>
std::uint64_t curve_key(const typename R::quad_t& q) {
  constexpr int d = R::dim;
  constexpr int k = kCurveKeyLevel<d>;
  const auto level =
      static_cast<std::uint64_t>(std::min(R::level(q), k));
  if constexpr (std::is_same_v<R, MortonRep<d>> ||
                std::is_same_v<R, WideMortonRep<d>>) {
    if constexpr (R::max_level <= k) {
      return static_cast<std::uint64_t>(R::full_index(q))
                 << (d * (k - R::max_level) + kCurveKeyLevelBits) |
             level;
    } else {
      return static_cast<std::uint64_t>(R::full_index(q) >>
                                        (d * (R::max_level - k)))
                 << kCurveKeyLevelBits |
             level;
    }
  } else {
    const CanonicalQuadrant c = to_canonical<R>(q);
    return curve_cell<d>(c.x, c.y, c.z) << kCurveKeyLevelBits | level;
  }
}

/// R::less(a, b) for quadrants with curve keys \p ka and \p kb: the keys
/// decide unless they are equal, which for distinct quadrants happens
/// only when both are K or more levels deep, so representations that
/// stop at level K never call R::less.
template <class R>
bool curve_less(std::uint64_t ka, const typename R::quad_t& a,
                std::uint64_t kb, const typename R::quad_t& b) {
  if constexpr (R::max_level <= kCurveKeyLevel<R::dim>) {
    return ka < kb;
  } else {
    return ka < kb || (ka == kb && R::less(a, b));
  }
}

/// Which neighbor relations the 2:1 balance constraint covers.
enum class BalanceKind {
  kFace,   ///< across faces only
  kEdge,   ///< faces + edges (3D; equals kFace in 2D)
  kFull    ///< faces + edges + corners
};

/// Ghost layer of one simulated rank: remote leaves adjacent to the
/// rank's own leaves, sorted by (tree, Morton order).
template <class R>
struct GhostLayer {
  struct Entry {
    tree_id_t tree;
    typename R::quad_t quad;
    int owner;            ///< owning rank
    gidx_t global_index;  ///< position in the global leaf sequence
  };
  std::vector<Entry> entries;
};

/// Boundary/interior split of one rank's leaves for communication /
/// computation overlap (see exchange_ghost_payloads in io.hpp): boundary
/// holds the rank's mirror leaves — exactly those whose stencils need
/// ghost data and must wait for the exchange — and interior the
/// complementary contiguous runs of the rank range, computable while the
/// exchange is in flight.
struct RankWorkSplit {
  std::vector<gidx_t> boundary;  ///< sorted global indices (the mirrors)
  std::vector<std::pair<gidx_t, gidx_t>> interior;  ///< half-open runs
};

/// Information passed to the face iteration callback.
template <class R>
struct FaceInfo {
  /// side 0 is the emitting leaf; side 1 the neighbor (absent on boundary).
  tree_id_t tree[2] = {-1, -1};
  typename R::quad_t quad[2] = {};
  std::size_t leaf_index[2] = {0, 0};  ///< index within the owning tree
  int face[2] = {-1, -1};              ///< face id as seen from each side
  bool is_boundary = false;            ///< physical domain boundary
  bool is_hanging = false;             ///< side 0 finer than side 1
};

/// A forest of axis-aligned unit trees storing leaf quadrants of
/// representation \p R.
template <class R>
  requires QuadrantRepresentation<R>
class Forest {
 public:
  using rep = R;
  using quad_t = typename R::quad_t;
  static constexpr int dim = R::dim;
  using dims = DimConstants<dim>;

  // ---------------------------------------------------------------- creation

  /// Forest of root quadrants: one leaf per tree.
  static Forest new_root(Connectivity conn, int num_ranks = 1) {
    return new_uniform(std::move(conn), 0, num_ranks);
  }

  /// Uniformly refined forest at \p level, built by Morton construction
  /// (this is the workload of the paper's §3.2 memory experiment). The
  /// leaf production is batched: the first tree is built chunk-parallel
  /// through BatchOps<R>::morton_quadrant_n (bulk de-interleave of the
  /// consecutive level indices) and the remaining trees — identical at a
  /// uniform level — are copies.
  static Forest new_uniform(Connectivity conn, int level, int num_ranks = 1) {
    if (conn.dim() != dim) {
      throw std::invalid_argument("Forest: connectivity dimension mismatch");
    }
    if (level < 0 || level > R::max_level || dim * level >= 64) {
      throw std::invalid_argument("Forest: level out of range");
    }
    Forest f(std::move(conn), num_ranks);
    const auto n = static_cast<std::size_t>(std::uint64_t{1}
                   << (static_cast<unsigned>(dim * level)));
    if (!f.trees_.empty()) {
      auto& front = f.trees_.front();
      front.resize(n);
      parallel_chunks(n, chunk_grain(),
                      [&](std::size_t, std::size_t b, std::size_t e) {
        std::vector<morton_t> il(e - b);
        for (std::size_t i = b; i < e; ++i) {
          il[i - b] = static_cast<morton_t>(i);
        }
        BatchOps<R>::morton_quadrant_n(il.data(), front.data() + b, e - b,
                                       level);
      });
      for (std::size_t t = 1; t < f.trees_.size(); ++t) {
        f.trees_[t] = front;
      }
    }
    f.reindex();
    f.partition();
    return f;
  }

  // ---------------------------------------------------------------- accessors

  [[nodiscard]] const Connectivity& connectivity() const { return conn_; }
  [[nodiscard]] tree_id_t num_trees() const {
    return static_cast<tree_id_t>(trees_.size());
  }
  [[nodiscard]] int num_ranks() const { return comm_.size(); }

  /// Global number of leaves over all trees.
  [[nodiscard]] gidx_t num_quadrants() const { return tree_offsets_.back(); }

  /// Leaves of tree \p t in Morton order.
  [[nodiscard]] const std::vector<quad_t>& tree_quadrants(tree_id_t t) const {
    return trees_[static_cast<std::size_t>(t)];
  }

  /// Position of leaf (t, i) in the global leaf sequence.
  [[nodiscard]] gidx_t global_index(tree_id_t t, std::size_t i) const {
    return tree_offsets_[static_cast<std::size_t>(t)] +
           static_cast<gidx_t>(i);
  }

  /// Rank owning global leaf index \p g under the current partition.
  [[nodiscard]] int owner_rank(gidx_t g) const {
    return par::Communicator::owner_of(rank_offsets_, g);
  }

  /// Global index range [first, last) owned by \p rank.
  [[nodiscard]] std::pair<gidx_t, gidx_t> rank_range(int rank) const {
    return {rank_offsets_[static_cast<std::size_t>(rank)],
            rank_offsets_[static_cast<std::size_t>(rank) + 1]};
  }

  /// Map a global leaf index to (tree, index-within-tree).
  [[nodiscard]] std::pair<tree_id_t, std::size_t> locate(gidx_t g) const {
    assert(g >= 0 && g < num_quadrants());
    const auto it =
        std::upper_bound(tree_offsets_.begin(), tree_offsets_.end(), g);
    const auto t = static_cast<tree_id_t>(it - tree_offsets_.begin()) - 1;
    return {t, static_cast<std::size_t>(g - tree_offsets_[
                   static_cast<std::size_t>(t)])};
  }

  /// Number of leaves at refinement level \p l.
  [[nodiscard]] gidx_t count_level(int l) const {
    gidx_t n = 0;
    for (const auto& tree : trees_) {
      for (const quad_t& q : tree) {
        n += R::level(q) == l ? 1 : 0;
      }
    }
    return n;
  }

  /// Finest level present in the forest.
  [[nodiscard]] int max_level_used() const {
    int m = 0;
    for (const auto& tree : trees_) {
      for (const quad_t& q : tree) {
        m = std::max(m, R::level(q));
      }
    }
    return m;
  }

  // ---------------------------------------------------------------- refine

  /// Refine leaves for which \p should_refine(tree, quad) returns true.
  /// With \p recursive, children are re-examined until the callback
  /// declines or max_level is reached (p4est refine semantics).
  ///
  /// Implementation: wave-based and two-level parallel. Every wave marks
  /// its leaves in leaf-span chunks and rewrites the tree with
  /// rewrite_leaves, the chunked rebuild coarsen and balance use too; the
  /// first wave that marks nothing ends the tree. The first wave marks
  /// over the whole tree; every later wave asks the callback only about
  /// the previous wave's children (the quadrants the recursive descent
  /// would visit, tracked as an index list). Children are produced in
  /// level-uniform batches through BatchOps<R> throughout. Trees run in
  /// parallel on the forest pool; chunks of one tree do too.
  template <class Fn>
  void refine(bool recursive, Fn&& should_refine) {
    obs::TraceSpan span("forest", "refine");
    QFOREST_DBG_WRAP_CALLBACK(checked_refine, should_refine);
    adapt_and_rebuild([&] {
      for_each_tree([&](std::size_t ti) {
        refine_tree(ti, recursive, checked_refine);
      });
    });
    span.arg("leaves", static_cast<std::int64_t>(num_quadrants()));
  }

  // ---------------------------------------------------------------- coarsen

  /// Replace complete sibling families accepted by
  /// \p should_coarsen(tree, family-pointer) with their parent. With
  /// \p recursive, passes repeat until no family is coarsened.
  ///
  /// Implementation: each pass precomputes every leaf's parent and child
  /// id in level-uniform batches through BatchOps<R> plus one batched
  /// adjacent-parent equality sweep, so the family-detection scan touches
  /// no scalar quadrant ops. Complete families never overlap, so the
  /// family detection and the callback decisions run over leaf-span
  /// chunks in parallel; they mark each accepted family in one edit
  /// array (merge at its start, drop at its other members), and
  /// rewrite_leaves applies it, as it applies refine's and balance's
  /// splits. A pass that accepts nothing leaves the tree untouched and
  /// ends a recursive coarsen. Trees run in parallel on the forest pool
  /// (coarsening never crosses tree boundaries).
  template <class Fn>
  void coarsen(bool recursive, Fn&& should_coarsen) {
    obs::TraceSpan span("forest", "coarsen");
    QFOREST_DBG_WRAP_CALLBACK(checked_coarsen, should_coarsen);
    adapt_and_rebuild([&] {
      for_each_tree([&](std::size_t ti) {
        CoarsenScratch scratch;  // reused across recursive passes
        while (coarsen_tree_pass(ti, checked_coarsen, scratch) && recursive) {
        }
      });
    });
    span.arg("leaves", static_cast<std::int64_t>(num_quadrants()));
  }

  // ---------------------------------------------------------------- balance

  /// Enforce the 2:1 level condition across the chosen neighbor relations
  /// (including across tree faces) by iterated splitting until fixpoint.
  ///
  /// Each mark phase is one neighbor_sweep over its source leaves of level
  /// >= 2: each chunk's leaves are staged into level-uniform spans and all
  /// candidate neighbor keys are produced in bulk through
  /// BatchOps<R>::neighbor_at_offset_n. Every key, whether it stays in its
  /// source tree or crosses a tree face, resolves against the per-tree
  /// Morton-cell index (MarkGrid) of the tree it lands in, with a
  /// range-local search of a handful of leaves' curve keys. The split
  /// bitmap is an edit array for rewrite_leaves (1 splits, 0 keeps). The
  /// sweep and the rewrite run per tree on the forest pool AND in chunks
  /// within each tree (split-bitmap marks use relaxed atomic stores,
  /// everything else stays chunk- or tree-local). After each rewrite,
  /// reindex rebuilds the offsets, keys and grids of the trees that were
  /// split; the other trees keep theirs.
  ///
  /// The first iteration sweeps every leaf; each later one sweeps only the
  /// frontier the previous split left (balance_frontier): the children it
  /// created and the sources whose keys it saw land three or more levels
  /// deeper than the leaf they marked. Every other pair was already
  /// checked, so each iteration marks the same leaves as a sweep over the
  /// whole forest would (Isaac, Burstedde & Ghattas 2012).
  ///
  /// An already-balanced forest is a no-op: no split, no leaf-array
  /// rebuild, no repartition.
  void balance(BalanceKind kind = BalanceKind::kFull) {
    obs::TraceSpan span("forest", "balance");
    static obs::Counter& c_iterations = obs::counter("forest.balance.iterations");
    static obs::Counter& c_swept = obs::counter("forest.balance.swept_leaves");
    std::int64_t iterations = 0;
    bool any_changed = false;
    // Mark bitmaps and the dirty list are hoisted out of the fixpoint loop
    // so later iterations reuse their heap buffers.
    std::vector<std::vector<std::uint8_t>> split(trees_.size());
    std::vector<std::vector<std::uint8_t>> again(trees_.size());
    std::vector<std::size_t> dirty;
    LeafRanges frontier{{0, num_quadrants()}};
    adapt_guard([&] {
      for (;;) {
        c_iterations.add(1);
        ++iterations;
        for (const auto& [a, b] : frontier) {
          c_swept.add(static_cast<std::uint64_t>(b - a));
        }
        mark_splits(kind, frontier, split, again);
        dirty.clear();
        for (std::size_t t = 0; t < trees_.size(); ++t) {
          if (std::find(split[t].begin(), split[t].end(), kSplit) !=
              split[t].end()) {
            dirty.push_back(t);
          }
        }
        if (dirty.empty()) {
          return;
        }
        any_changed = true;
        parallel_over(dirty.size(), [&](std::size_t d) {
          const std::size_t t = dirty[d];
          rewrite_leaves(trees_[t],
                         payload_enabled_ ? &payloads_[t] : nullptr, split[t],
                         nullptr);
        });
        reindex(&dirty);  // the next mark sweep reads offsets and grids
        frontier = balance_frontier(split, again);
      }
    }, any_changed);
    if (any_changed) {
      partition();
    }
    span.arg("iterations", iterations);
    span.arg("leaves", static_cast<std::int64_t>(num_quadrants()));
  }

  /// Check the 2:1 condition without modifying the forest: one balance
  /// mark sweep over every leaf, which finds no violation exactly when the
  /// forest is balanced. The first violation stops the sweep.
  [[nodiscard]] bool is_balanced(BalanceKind kind = BalanceKind::kFull) const {
    std::atomic<bool> unbalanced{false};
    (void)neighbor_sweep(
        {{0, num_quadrants()}}, neighbor_offsets(kind), 2,
        [&](std::vector<gidx_t>&, std::size_t ti, std::ptrdiff_t j,
            const quad_t& key, const SweepSource&) {
          if (must_split(ti, j, key)) {
            // mo: relaxed — one-way flag; the sweep only polls it to stop
            // early, and the load below runs after the regions join.
            unbalanced.store(true, std::memory_order_relaxed);
          }
        },
        [](std::vector<gidx_t>&, const SweepSource&) {}, &unbalanced);
    // mo: relaxed — read after the sweep's regions joined.
    return !unbalanced.load(std::memory_order_relaxed);
  }

  // ---------------------------------------------------------------- partition

  /// Repartition the global Morton order into contiguous rank ranges with
  /// near-equal total weight. Throws std::invalid_argument, leaving the
  /// partition as it was, when \p weight(tree, quad) is not positive.
  template <class Fn>
  void partition_weighted(Fn&& weight) {
    const gidx_t n = num_quadrants();
    const int p = comm_.size();
    std::vector<std::int64_t> prefix;
    prefix.reserve(static_cast<std::size_t>(n) + 1);
    prefix.push_back(0);
    for (tree_id_t t = 0; t < num_trees(); ++t) {
      for (const quad_t& q : trees_[static_cast<std::size_t>(t)]) {
        const std::int64_t w = weight(t, q);
        if (w <= 0) {
          throw std::invalid_argument("partition weights must be positive");
        }
        prefix.push_back(prefix.back() + w);
      }
    }
    const std::int64_t total = prefix.back();
    adjacency_.reset();
    rank_offsets_.assign(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 1; r < p; ++r) {
      // First quadrant whose preceding cumulative weight reaches r/p of
      // the total (p4est_partition_cut_uint64 semantics).
      const auto target = static_cast<std::int64_t>(
          (static_cast<__int128>(total) * r + p - 1) / p);
      const auto it =
          std::lower_bound(prefix.begin(), prefix.end(), target);
      rank_offsets_[static_cast<std::size_t>(r)] =
          static_cast<gidx_t>(it - prefix.begin());
      if (rank_offsets_[static_cast<std::size_t>(r)] > n) {
        rank_offsets_[static_cast<std::size_t>(r)] = n;
      }
    }
    rank_offsets_.back() = n;
    for (int r = 1; r <= p; ++r) {
      rank_offsets_[static_cast<std::size_t>(r)] =
          std::max(rank_offsets_[static_cast<std::size_t>(r)],
                   rank_offsets_[static_cast<std::size_t>(r) - 1]);
    }
  }

  /// Uniform repartition (weight 1 per leaf).
  void partition() {
    adjacency_.reset();
    rank_offsets_ = comm_.block_distribution(num_quadrants());
  }

  /// Re-shard the forest over a different simulated rank count and
  /// repartition uniformly (scaling experiments reuse one mesh across
  /// rank counts instead of rebuilding it per count).
  void set_num_ranks(int num_ranks) {
    comm_ = par::Communicator(num_ranks);
    partition();
  }

  // ---------------------------------------------------------------- ghost

  /// Remote leaves adjacent (faces, edges and corners) to \p rank's own.
  ///
  /// A slice of the rank adjacency (build_adjacency): one neighbor_sweep
  /// over the leaves a leaf of another rank could touch — the same sweep
  /// as the balance mark phase — made on the first read after the mesh or
  /// the partition changed and shared by every rank's ghost_layer,
  /// mirrors and rank_work_split until the next change.
  [[nodiscard]] GhostLayer<R> ghost_layer(int rank) const {
    const std::span<const gidx_t> seen = adjacency().ghosts.of(rank);
    GhostLayer<R> ghost;
    ghost.entries.reserve(seen.size());
    for (gidx_t g : seen) {
      const auto [t, i] = locate(g);
      ghost.entries.push_back({t, trees_[static_cast<std::size_t>(t)][i],
                               owner_rank(g), g});
    }
    return ghost;
  }

  /// Mirror leaves of \p rank: the rank's own leaves that appear in some
  /// other rank's ghost layer (the data it must send in an exchange), as
  /// sorted global indices. A slice of the rank adjacency, like
  /// ghost_layer.
  [[nodiscard]] std::vector<gidx_t> mirrors(int rank) const {
    const std::span<const gidx_t> own = adjacency().mirrors.of(rank);
    return {own.begin(), own.end()};
  }

  /// Boundary-first/interior-second split of \p rank's leaves for
  /// overlap scheduling: boundary = mirrors(rank), interior = the
  /// complementary runs of rank_range(rank).
  [[nodiscard]] RankWorkSplit rank_work_split(int rank) const {
    RankWorkSplit split;
    split.boundary = mirrors(rank);
    const auto [first, last] = rank_range(rank);
    gidx_t pos = first;
    for (const gidx_t b : split.boundary) {
      if (b > pos) {
        split.interior.emplace_back(pos, b);
      }
      pos = b + 1;
    }
    if (pos < last) {
      split.interior.emplace_back(pos, last);
    }
    return split;
  }

  /// Simulated ghost data exchange (p4est_ghost_exchange_data): fill each
  /// ghost entry of \p rank with the owner's payload, read directly from
  /// shared memory — the single-rank reference the message-passing
  /// exchange (exchange_ghost_payloads in io.hpp) is verified against.
  /// Requires the payload channel. Returns one value per ghost entry, in
  /// ghost order.
  [[nodiscard]] std::vector<std::uint64_t> ghost_exchange(
      int rank, const GhostLayer<R>& ghost) const {
    assert(payload_enabled_);
    std::vector<std::uint64_t> data;
    data.reserve(ghost.entries.size());
    for (const auto& e : ghost.entries) {
      const auto [t, i] = locate(e.global_index);
      data.push_back(payloads_[static_cast<std::size_t>(t)][i]);
    }
    (void)rank;
    return data;
  }

  // ---------------------------------------------------------------- search

  /// Top-down traversal per tree (p4est_search): \p cb(tree, ancestor,
  /// first, last, is_leaf) sees the leaf range [first, last) covered by
  /// the ancestor and prunes the descent by returning false.
  template <class Fn>
  void search(Fn&& cb) const {
    for (tree_id_t t = 0; t < num_trees(); ++t) {
      const auto& tree = trees_[static_cast<std::size_t>(t)];
      if (!tree.empty()) {
        search_recursion(t, R::root(), 0, tree.size(), cb);
      }
    }
  }

  /// Batched point location: the global index of the leaf containing each
  /// query point, in input order. Coordinates are canonical (2^60 grid;
  /// see point_query.hpp for the shared-boundary convention). Throws
  /// std::invalid_argument when a query lies outside its tree's domain.
  ///
  /// Each query resolves on its own through its tree's MarkGrid
  /// (grid_cursor, the lookup that also resolves the neighbor sweep's
  /// keys): a search among the few leaves of one grid cell instead of a
  /// whole-tree binary search. Chunks of queries run in parallel on the
  /// forest pool. The pruning traversal search() remains the API for
  /// callback-driven descents.
  [[nodiscard]] std::vector<gidx_t> search_points(
      const std::vector<PointQuery>& queries) const {
    obs::TraceSpan span("forest", "search_points");
    span.arg("queries", static_cast<std::int64_t>(queries.size()));
    const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
    for (const PointQuery& p : queries) {
      if (p.tree < 0 || p.tree >= num_trees() || p.x < 0 || p.x >= root ||
          p.y < 0 || p.y >= root || p.z < 0 || p.z >= root ||
          (dim == 2 && p.z != 0)) {
        throw std::invalid_argument(
            "Forest::search_points: query outside the domain");
      }
    }
    std::vector<gidx_t> out(queries.size(), -1);
    parallel_chunks(queries.size(), chunk_grain(),
                    [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t qi = b; qi < e; ++qi) {
        const quad_t key = point_key(queries[qi]);
        const auto ti = static_cast<std::size_t>(queries[qi].tree);
        // The containing leaf is the last leaf <= the point's key; a
        // complete tree guarantees one exists (the curve-minimal leaf
        // precedes every in-root key).
        const std::ptrdiff_t j = grid_cursor(ti, curve_key<R>(key), key);
        assert(j >= 0);
        out[qi] = global_index(queries[qi].tree, static_cast<std::size_t>(j));
      }
    });
    return out;
  }

  // ---------------------------------------------------------------- iterate

  /// Visit every face between leaves exactly once, plus every physical
  /// boundary face. Works on non-2:1-balanced forests as well (the
  /// paper's future-work item 4): hanging pairs are emitted from the
  /// finer side, equal-size pairs from the globally lower leaf.
  ///
  /// One neighbor_sweep over every leaf with the 2*dim face offsets: the
  /// sweep runs per tree AND per leaf chunk on the forest pool, produces
  /// every face-neighbor key of a level-uniform span in bulk through
  /// BatchOps<R>::neighbor_at_offset_n and resolves it against the
  /// Morton-cell grid of the tree it lands in, across a tree face or not.
  /// The emission ORDER is therefore unspecified, and \p cb is invoked
  /// concurrently — it must be thread-safe, with the same opt-outs as the
  /// adaptation callbacks (set_tree_parallelism / set_chunk_grain).
  template <class Fn>
  void iterate_faces(Fn&& cb) const {
    obs::TraceSpan span("forest", "iterate_faces");
    QFOREST_DBG_WRAP_CALLBACK(checked_cb, cb);
    // Side 0 of a face: the emitting leaf.
    const auto side0 = [&](const SweepSource& from) {
      FaceInfo<R> info;
      info.tree[0] = from.tree;
      info.quad[0] = trees_[static_cast<std::size_t>(from.tree)][from.leaf];
      info.leaf_index[0] = from.leaf;
      info.face[0] = from.offset;
      return info;
    };
    (void)neighbor_sweep(
        {{0, num_quadrants()}}, face_offsets(), 0,
        [&](std::vector<gidx_t>&, std::size_t ti, std::ptrdiff_t j,
            const quad_t& key, const SweepSource& from) {
          if (j < 0) {
            return;
          }
          const auto t = static_cast<tree_id_t>(ti);
          const auto leaf = static_cast<std::size_t>(j);
          const quad_t& nb = trees_[ti][leaf];
          if (!encloses(nb, key)) {
            return;  // neighbor region finer: those leaves emit toward us
          }
          // The key has side 0's level: equal-size pairs emit from the
          // globally lower side, hanging ones from the finer side 0.
          const bool hanging = R::level(nb) != R::level(key);
          if (!hanging &&
              global_index(from.tree, from.leaf) > global_index(t, leaf)) {
            return;
          }
          FaceInfo<R> info = side0(from);
          info.is_hanging = hanging;
          info.tree[1] = t;
          info.quad[1] = nb;
          info.leaf_index[1] = leaf;
          info.face[1] = from.offset ^ 1;
          checked_cb(info);
        },
        [&](std::vector<gidx_t>&, const SweepSource& from) {
          FaceInfo<R> info = side0(from);
          info.is_boundary = true;
          checked_cb(info);
        });
  }

  // ---------------------------------------------------------------- checks

  /// Full structural validation: every leaf valid and inside its tree,
  /// per-tree arrays sorted strictly, non-overlapping, and complete
  /// (leaves cover each tree exactly).
  [[nodiscard]] bool is_valid() const {
    for (tree_id_t t = 0; t < num_trees(); ++t) {
      const auto& tree = trees_[static_cast<std::size_t>(t)];
      if (tree.empty()) {
        return false;
      }
      for (const quad_t& q : tree) {
        if (!R::is_valid(q) || !R::inside_root(q)) {
          return false;
        }
      }
      for (std::size_t i = 0; i + 1 < tree.size(); ++i) {
        if (!R::less(tree[i], tree[i + 1]) ||
            R::overlaps(tree[i], tree[i + 1])) {
          return false;
        }
      }
      if (!is_complete_range(R::root(), tree.data(),
                             tree.data() + tree.size())) {
        return false;
      }
    }
    if (rank_offsets_.front() != 0 || rank_offsets_.back() != num_quadrants()) {
      return false;
    }
    return std::is_sorted(rank_offsets_.begin(), rank_offsets_.end());
  }

  /// Replace the entire leaf storage (used by deserialization and by
  /// tests constructing meshes directly). The caller provides one sorted
  /// leaf vector per tree; the indexes and the partition are rebuilt. Call
  /// is_valid() afterwards to verify structural soundness.
  void replace_leaves(std::vector<std::vector<quad_t>> trees) {
    if (trees.size() != trees_.size()) {
      throw std::invalid_argument(
          "Forest::replace_leaves: tree count mismatch");
    }
    trees_ = std::move(trees);
    if (payload_enabled_) {
      for (std::size_t t = 0; t < trees_.size(); ++t) {
        payloads_[t].assign(trees_[t].size(), 0);
      }
    }
    reindex();
    partition();
  }

  // ---------------------------------------------------------------- payload

  /// Enable the per-leaf payload channel (8 bytes per leaf, the standard
  /// representation's historic user data). The compact encodings carry no
  /// payload bits, so the forest stores payloads in a parallel side array
  /// (structure-of-arrays) and keeps it synchronized across refine (children
  /// inherit the parent's value), coarsen (the parent takes the first
  /// child's value) and balance.
  void enable_payload(std::uint64_t initial = 0) {
    payload_enabled_ = true;
    payloads_.resize(trees_.size());
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      payloads_[t].assign(trees_[t].size(), initial);
    }
  }

  [[nodiscard]] bool payload_enabled() const { return payload_enabled_; }

  /// Payload array of tree \p t, parallel to tree_quadrants(t).
  [[nodiscard]] const std::vector<std::uint64_t>& tree_payloads(
      tree_id_t t) const {
    assert(payload_enabled_);
    return payloads_[static_cast<std::size_t>(t)];
  }

  /// Mutable payload of leaf (t, i).
  std::uint64_t& payload(tree_id_t t, std::size_t i) {
    assert(payload_enabled_);
    return payloads_[static_cast<std::size_t>(t)][i];
  }

  // ------------------------------------------------------------ neighbor API

  /// Result of a neighbor lookup: the neighbor's tree and quadrant plus
  /// the tree-grid steps taken across tree faces (0 when staying inside).
  struct NeighborLookup {
    tree_id_t tree;
    quad_t quad;
    std::array<int, 3> tree_step;
  };

  /// Neighbor of \p q at its own level displaced by (dx,dy,dz) quadrant
  /// lengths, following brick connectivity across tree faces. Returns
  /// std::nullopt at a physical boundary.
  [[nodiscard]] std::optional<NeighborLookup> neighbor_at_offset(
      tree_id_t t, const quad_t& q, int dx, int dy, int dz) const {
    const CanonicalQuadrant c = to_canonical<R>(q);
    const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - c.level);
    std::int64_t pos[3] = {c.x + dx * h, c.y + dy * h, c.z + dz * h};
    std::array<int, 3> tree_step{};
    const tree_id_t nt = wrap_key(t, pos, tree_step);
    if (nt < 0) {
      return std::nullopt;
    }
    const CanonicalQuadrant nc{pos[0], pos[1], pos[2], c.level};
    return NeighborLookup{nt, from_canonical<R>(nc), tree_step};
  }

  /// Index of the unique leaf in tree \p t that is an ancestor of or equal
  /// to \p q, or std::nullopt when the region of \p q is covered by finer
  /// leaves instead.
  [[nodiscard]] std::optional<std::size_t> find_enclosing_leaf(
      tree_id_t t, const quad_t& q) const {
    const auto& tree = trees_[static_cast<std::size_t>(t)];
    // First leaf strictly after q: the candidate enclosure sits before it.
    const auto it =
        std::upper_bound(tree.begin(), tree.end(), q, RepLess<R>{});
    if (it == tree.begin()) {
      return std::nullopt;
    }
    const auto idx = static_cast<std::size_t>(it - tree.begin()) - 1;
    if (encloses(tree[idx], q)) {
      return idx;
    }
    return std::nullopt;
  }

 private:
  explicit Forest(Connectivity conn, int num_ranks)
      : conn_(std::move(conn)),
        comm_(num_ranks),
        trees_(static_cast<std::size_t>(conn_.num_trees())) {
    reindex();
    partition();
  }

  // ------------------------------------------------- batched adaptation core

  /// Run fn(0..n-1) across the forest pool (tree-level scheduling); 0-
  /// and 1-item loops stay on the calling thread, as do loops issued from
  /// inside a pool task (reentrant forest operations). When a worker
  /// throws, the pool rethrows the lowest-index block's exception on the
  /// calling thread once every block finished and logs how many it
  /// dropped (basic guarantee: other trees may already have been
  /// modified, as with any mid-loop throw).
  template <class Fn>
  static void parallel_over(std::size_t n, Fn&& fn) {
    if (n == 0) {
      return;
    }
    if (n == 1 || !tree_parallelism() || detail::worker_depth() > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        fn(i);
      }
      return;
    }
    QFOREST_DBG_DEPTH_TRANSITION(detail::worker_depth(), 1);
    detail::forest_pool().parallel_for(n, [&](std::size_t b, std::size_t e) {
      const detail::DepthScope scope(1);
      for (std::size_t i = b; i < e; ++i) {
        fn(i);
      }
    });
  }

  /// Run fn(chunk, begin, end) over the contiguous blocks of [0, n) cut
  /// at multiples of \p grain (intra-tree chunk scheduling). Dispatches
  /// on the forest pool from the calling thread or from a tree-level
  /// worker (the pool's helping wait makes the nested dispatch
  /// deadlock-free); runs inline — with identical chunk geometry — when
  /// parallelism is off or the caller already is a chunk worker, so chunk
  /// workers never nest. Exceptions follow the parallel_over contract
  /// (lowest-index chunk wins, dropped count logged).
  template <class Fn>
  static void parallel_chunks(std::size_t n, std::size_t grain, Fn&& fn) {
    if (n == 0) {
      return;
    }
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t chunks = batch::chunk_count(n, grain);
    if (chunks == 1 || !tree_parallelism() || detail::worker_depth() >= 2) {
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t b = c * grain;
        fn(c, b, std::min(n, b + grain));
      }
      return;
    }
    QFOREST_DBG_DEPTH_TRANSITION(detail::worker_depth(), 2);
    detail::forest_pool().parallel_for_grain(
        n, grain, [&](std::size_t b, std::size_t e) {
          const detail::DepthScope scope(2);
          fn(b / grain, b, e);
        });
  }

  /// Per-tree outer loop of the adaptation algorithms.
  template <class Fn>
  void for_each_tree(Fn&& fn) {
    parallel_over(trees_.size(), fn);
  }

  /// Shared exception-consistency wrapper of refine / coarsen: when the
  /// tree loop throws (a callback raised, or allocation failed), some
  /// trees may already have been adapted — rebuild the indexes and the
  /// partition before rethrowing so the forest stays structurally
  /// consistent (is_valid() holds; the adaptation is simply partial).
  template <class Fn>
  void adapt_and_rebuild(Fn&& body) {
    drop_index();
    try {
      body();
    } catch (...) {
      reindex();
      partition();
      QFOREST_DBG_STRUCTURAL(is_valid(),
                             "forest structurally inconsistent after a "
                             "throwing adaptation callback");
      throw;
    }
    reindex();
    partition();
  }

  /// Exception-consistency guard for balance, whose success path rebuilds
  /// conditionally (a no-op balance must not repartition): on throw,
  /// rebuild only when some tree was already modified.
  template <class Fn>
  void adapt_guard(Fn&& body, const bool& modified) {
    try {
      body();
    } catch (...) {
      if (modified) {
        reindex();
        partition();
      }
      QFOREST_DBG_STRUCTURAL(is_valid(),
                             "forest structurally inconsistent after a "
                             "throwing balance");
      throw;
    }
  }

  /// One tree of refine(): every wave marks the leaves to split in one
  /// edit array, chunk-parallel, and rewrites the tree with
  /// rewrite_leaves; the first wave that marks nothing ends the loop.
  /// Wave 1 marks over every leaf; each later wave (recursive only)
  /// visits only the children the previous wave created, the index list
  /// rewrite_leaves returns.
  template <class Fn>
  void refine_tree(std::size_t ti, bool recursive, Fn& should_refine) {
    static obs::Counter& c_waves = obs::counter("forest.refine.waves");
    const auto t = static_cast<tree_id_t>(ti);
    auto& tree = trees_[ti];
    auto* pay = payload_enabled_ ? &payloads_[ti] : nullptr;
    std::vector<std::uint8_t> edit;
    std::vector<std::size_t> fresh;  // the last wave's children, ascending
    for (bool first = true;; first = false) {
      edit.assign(tree.size(), kKeep);
      parallel_chunks(first ? tree.size() : fresh.size(), chunk_grain(),
                      [&](std::size_t, std::size_t b, std::size_t e) {
        // Each index is visited once, so no two chunks write one byte.
        for (std::size_t j = b; j < e; ++j) {
          const std::size_t i = first ? j : fresh[j];
          const quad_t& q = tree[i];
          if (R::level(q) < R::max_level && should_refine(t, q)) {
            edit[i] = kSplit;
          }
        }
      });
      if (!rewrite_leaves(tree, pay, edit, nullptr,
                          recursive ? &fresh : nullptr)) {
        return;
      }
      c_waves.add(1);
      if (!recursive) {
        return;
      }
    }
  }

  /// Per-leaf edits of rewrite_leaves. Balance's split bitmap is an edit
  /// array as it stands (1 splits, 0 keeps).
  enum LeafEdit : std::uint8_t {
    kKeep = 0,   ///< copy the leaf
    kSplit = 1,  ///< replace it by its 2^d children
    kMerge = 2,  ///< replace its family by parents[i] (family start)
    kDrop = 3,   ///< a later member of a merged family: write nothing
  };

  /// Rewrite one tree's leaves (and payloads) by one edit per leaf. A
  /// split leaf's children inherit its payload; a merged family's parent
  /// takes its first child's. Split leaves are staged into level-uniform
  /// spans and their children produced through BatchOps<R> (one batch
  /// per (level, child-index) pair). Chunks are cut at multiples of the
  /// grain: a counting pass sizes each chunk's contiguous output slice,
  /// then every chunk writes its slice independently, so a merged family
  /// may straddle chunks (its kDrop members write nothing). When
  /// \p fresh is non-null it receives the ascending output indices of
  /// the children created (the leaves a recursive refine wave
  /// re-examines). Returns false, touching nothing, when every edit is
  /// kKeep. Every refine wave, coarsen pass and balance iteration
  /// rewrites its tree here; nothing else in the forest does.
  static bool rewrite_leaves(std::vector<quad_t>& leaves,
                             std::vector<std::uint64_t>* pay,
                             const std::vector<std::uint8_t>& edit,
                             const quad_t* parents,
                             std::vector<std::size_t>* fresh = nullptr) {
    constexpr auto nc = static_cast<std::size_t>(dims::num_children);
    constexpr std::array<std::size_t, 4> width{1, nc, 1, 0};  // per edit
    const std::size_t n = leaves.size();
    const std::size_t grain = chunk_grain();
    const std::size_t nchunks = batch::chunk_count(n, grain);
    // Chunk c's output slice and children start at out_base[c] and
    // fresh_base[c]: counted per chunk into slot c + 1, then summed.
    std::vector<std::size_t> out_base(nchunks + 1, 0);
    std::vector<std::size_t> fresh_base(nchunks + 1, 0);
    parallel_chunks(n, grain,
                    [&](std::size_t c, std::size_t b, std::size_t e) {
      std::size_t o = 0;
      std::size_t k = 0;
      for (std::size_t i = b; i < e; ++i) {
        o += width[edit[i]];
        k += edit[i] == kSplit ? 1 : 0;
      }
      out_base[c + 1] = o;
      fresh_base[c + 1] = k * nc;
    });
    std::partial_sum(out_base.begin(), out_base.end(), out_base.begin());
    std::partial_sum(fresh_base.begin(), fresh_base.end(),
                     fresh_base.begin());
    const std::size_t out_n = out_base[nchunks];
    if (out_n == n && fresh_base[nchunks] == 0) {
      return false;
    }
    std::vector<quad_t> out(out_n);
    std::vector<std::uint64_t> outp(pay ? out_n : 0);
    if (fresh) {
      fresh->resize(fresh_base[nchunks]);
    }
    parallel_chunks(n, grain,
                    [&](std::size_t c, std::size_t b, std::size_t e) {
      // Stage this chunk's split leaves per level; children of staged
      // element j for child index c2 land at kids[l][c2 * count[l] + j].
      SpanStage<R> staged;
      for (std::size_t i = b; i < e; ++i) {
        if (edit[i] == kSplit) {
          staged.add(leaves[i]);
        }
      }
      std::vector<std::vector<quad_t>> kids(staged.num_levels());
      for (std::size_t l = 0; l < staged.num_levels(); ++l) {
        const std::size_t k = staged.count(l);
        if (k == 0) {
          continue;
        }
        kids[l].resize(k * nc);
        for (std::size_t c2 = 0; c2 < nc; ++c2) {
          BatchOps<R>::child_uniform(staged.span(l).data(),
                                     kids[l].data() + c2 * k, k,
                                     static_cast<int>(c2),
                                     static_cast<int>(l));
        }
      }
      std::size_t o = out_base[c];
      std::size_t f = fresh_base[c];
      std::vector<std::size_t> cursor(staged.num_levels(), 0);
      for (std::size_t i = b; i < e; ++i) {
        switch (edit[i]) {
          case kKeep:
          case kMerge:
            out[o] = edit[i] == kMerge ? parents[i] : leaves[i];
            if (pay) {
              outp[o] = (*pay)[i];
            }
            ++o;
            break;
          case kSplit: {
            const auto l = static_cast<std::size_t>(R::level(leaves[i]));
            const std::size_t j = cursor[l]++;
            const std::size_t k = staged.count(l);
            for (std::size_t c2 = 0; c2 < nc; ++c2) {
              out[o] = kids[l][c2 * k + j];
              if (pay) {
                outp[o] = (*pay)[i];
              }
              if (fresh) {
                (*fresh)[f++] = o;
              }
              ++o;
            }
            break;
          }
          default:  // kDrop
            break;
        }
      }
    });
    leaves = std::move(out);
    if (pay) {
      *pay = std::move(outp);
    }
    return true;
  }

  /// Reusable buffers of coarsen_tree_pass, so recursive coarsening does
  /// not reallocate the staging arrays on every pass.
  struct CoarsenScratch {
    std::vector<int> levels;
    std::vector<int> ids;
    std::vector<quad_t> parents;
    std::vector<std::vector<std::size_t>> at_level;
    std::vector<quad_t> in;
    std::vector<quad_t> batch_out;
    std::vector<int> idbuf;
    std::vector<std::uint8_t> eq;
    std::vector<std::uint8_t> edit;
  };

  /// One coarsen sweep over tree \p ti: batch-precompute parent, child id
  /// and adjacent-parent equality for every leaf, then scan for complete
  /// families, ask the callback about each, and rewrite the tree with
  /// every accepted family replaced by its (already computed) parent.
  /// Returns whether anything was coarsened.
  template <class Fn>
  bool coarsen_tree_pass(std::size_t ti, Fn& should_coarsen,
                         CoarsenScratch& s) {
    constexpr int nc = dims::num_children;
    auto& tree = trees_[ti];
    const std::size_t n = tree.size();
    if (n < static_cast<std::size_t>(nc)) {
      return false;
    }
    s.levels.resize(n);
    s.ids.assign(n, 0);
    // Level-0 leaves have no parent; they keep themselves so the batched
    // equality sweep below reads initialized data (their lanes are never
    // consulted by the family test, which requires level > 0).
    s.parents.assign(tree.begin(), tree.end());
    s.at_level.resize(static_cast<std::size_t>(R::max_level) + 1);
    for (auto& idx : s.at_level) {
      idx.clear();
    }
    for (std::size_t i = 0; i < n; ++i) {
      s.levels[i] = R::level(tree[i]);
      if (s.levels[i] > 0) {
        s.at_level[static_cast<std::size_t>(s.levels[i])].push_back(i);
      }
    }
    for (std::size_t l = 1; l < s.at_level.size(); ++l) {
      const auto& idx = s.at_level[l];
      if (idx.empty()) {
        continue;
      }
      s.in.clear();
      s.in.reserve(idx.size());
      for (const std::size_t i : idx) {
        s.in.push_back(tree[i]);
      }
      s.batch_out.resize(idx.size());
      s.idbuf.resize(idx.size());
      BatchOps<R>::parent_uniform(s.in.data(), s.batch_out.data(),
                                  idx.size(), static_cast<int>(l));
      BatchOps<R>::child_id_n(s.in.data(), s.idbuf.data(), idx.size(),
                              static_cast<int>(l));
      for (std::size_t j = 0; j < idx.size(); ++j) {
        s.parents[idx[j]] = s.batch_out[j];
        s.ids[idx[j]] = s.idbuf[j];
      }
    }
    // eq[i] <=> parents[i] == parents[i + 1]; chained over a run of
    // sibling candidates it implies one common parent.
    s.eq.resize(n - 1);
    BatchOps<R>::equal_mask(s.parents.data(), s.parents.data() + 1,
                            s.eq.data(), n - 1);

    const auto t = static_cast<tree_id_t>(ti);
    auto* pay = payload_enabled_ ? &payloads_[ti] : nullptr;
    // Family detection + callback decisions, chunk-parallel. Complete
    // sibling families can never overlap (a family start needs child id
    // 0, and every later member of a family has a nonzero id), so each
    // start's decision is independent of the scan order and chunk
    // boundaries are safe to cut anywhere: the fam test only *reads* up
    // to nc - 1 entries past the chunk end. An accepted family's kDrop
    // members may lie in the next chunk, which writes only the edits of
    // its own family starts, so no edit byte is stored twice.
    s.edit.assign(n, kKeep);
    static obs::Counter& c_accepted =
        obs::counter("forest.coarsen.families_accepted");
    static obs::Counter& c_rejected =
        obs::counter("forest.coarsen.families_rejected");
    parallel_chunks(n, chunk_grain(),
                    [&](std::size_t, std::size_t b, std::size_t e) {
      std::size_t accepted = 0;
      std::size_t rejected = 0;
      for (std::size_t i = b; i < e; ++i) {
        bool fam = i + static_cast<std::size_t>(nc) <= n &&
                   s.levels[i] > 0 && s.ids[i] == 0;
        for (int c = 1; fam && c < nc; ++c) {
          const std::size_t j = i + static_cast<std::size_t>(c);
          fam = s.levels[j] == s.levels[i] && s.ids[j] == c &&
                s.eq[j - 1] != 0;
        }
        if (fam) {
          if (should_coarsen(t, tree.data() + i)) {
            s.edit[i] = kMerge;
            std::fill_n(s.edit.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                        nc - 1, kDrop);
            ++accepted;
          } else {
            ++rejected;
          }
        }
      }
      if (accepted > 0) {
        c_accepted.add(accepted);
      }
      if (rejected > 0) {
        c_rejected.add(rejected);
      }
    });
    return rewrite_leaves(tree, pay, s.edit, s.parents.data());
  }

  /// Rebuild the indexes derived from the leaf arrays: the tree offsets
  /// and, for every tree in \p changed (every tree when null), the leaves'
  /// curve keys and the MarkGrid; and drop the rank adjacency. Every
  /// operation that changes leaves ends here, on its exception path too,
  /// so the const read paths borrow the offsets, keys and grids without a
  /// check.
  void reindex(const std::vector<std::size_t>* changed = nullptr) {
    adjacency_.reset();
    tree_offsets_.assign(trees_.size() + 1, 0);
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      tree_offsets_[t + 1] =
          tree_offsets_[t] + static_cast<gidx_t>(trees_[t].size());
    }
    keys_.resize(trees_.size());
    grids_.resize(trees_.size());
    parallel_over(changed ? changed->size() : trees_.size(),
                  [&](std::size_t k) {
                    index_tree(changed ? (*changed)[k] : k);
                  });
  }

  /// Release the indexes derived from the leaves (keys, grids, rank
  /// adjacency) before an adaptation rewrites the leaf arrays: its
  /// staging buffers then do not sit on top of them, and the reindex()
  /// that ends every adaptation rebuilds them.
  void drop_index() {
    adjacency_.reset();
    for (std::size_t t = 0; t < keys_.size(); ++t) {
      std::vector<std::uint64_t>().swap(keys_[t]);
      std::vector<std::size_t>().swap(grids_[t].begin);
    }
  }

  /// Whether \p leaf is \p key or one of its ancestors.
  static bool encloses(const quad_t& leaf, const quad_t& key) {
    return R::equal(leaf, key) || R::is_ancestor(leaf, key);
  }

  // ------------------------------------------------------- neighbor sweep

  /// Wrap the canonical position \p pos of a key displaced from tree \p t
  /// back into the root domain, axis by axis, and follow the connectivity
  /// to the tree it lands in. Returns that tree — t itself when no axis
  /// wrapped, or on a periodic wrap back into t — or -1 past a physical
  /// boundary; \p step receives the tree-grid steps taken.
  tree_id_t wrap_key(tree_id_t t, std::int64_t (&pos)[3],
                     std::array<int, 3>& step) const {
    const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
    step = {0, 0, 0};
    for (int a = 0; a < dim; ++a) {
      if (pos[a] < 0) {
        step[a] = -1;
        pos[a] += root;
      } else if (pos[a] >= root) {
        step[a] = 1;
        pos[a] -= root;
      }
    }
    if (step[0] == 0 && step[1] == 0 && step[2] == 0) {
      return t;
    }
    return conn_.tree_offset_neighbor(t, step[0], step[1], step[2]);
  }

  /// Displacements (in quadrant lengths) of the neighbor relations the
  /// balance kind covers.
  static std::vector<std::array<int, 3>> neighbor_offsets(BalanceKind kind) {
    const int max_axes = kind == BalanceKind::kFace   ? 1
                         : kind == BalanceKind::kEdge ? (dim == 3 ? 2 : 1)
                                                      : 3;
    const int zlo = dim == 3 ? -1 : 0;
    const int zhi = dim == 3 ? 1 : 0;
    std::vector<std::array<int, 3>> out;
    for (int dz = zlo; dz <= zhi; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int axes = (dx != 0) + (dy != 0) + (dz != 0);
          if (axes > 0 && axes <= max_axes) {
            out.push_back({dx, dy, dz});
          }
        }
      }
    }
    return out;
  }

  /// The 2*dim face displacements, indexed by face id: face f steps along
  /// axis f/2, toward + when f is odd.
  static std::vector<std::array<int, 3>> face_offsets() {
    std::vector<std::array<int, 3>> out(dims::num_faces,
                                        std::array<int, 3>{0, 0, 0});
    for (int f = 0; f < dims::num_faces; ++f) {
      out[static_cast<std::size_t>(f)][static_cast<std::size_t>(f >> 1)] =
          (f & 1) ? 1 : -1;
    }
    return out;
  }

  /// Coarse Morton-cell index over one tree's leaf array. The leaves
  /// meeting cell c of the uniform level-`level` grid form a contiguous
  /// index range (the leaves are sorted along the curve and grid cells
  /// are aligned blocks) that starts at begin[c]; begin has one extra
  /// entry, begin[cells] = n. A leaf meeting two cells is coarser than the
  /// grid and so the only leaf in each of them, hence the range of cell c
  /// ends at max(begin[c + 1], begin[c] + 1). The grid level is at most K,
  /// so the cell of a curve key is its prefix, key >> shift. A key lookup
  /// then touches only the few leaves of one cell instead of
  /// binary-searching the whole tree.
  struct MarkGrid {
    int shift = 0;  ///< curve-key bits below the cell index
    std::vector<std::size_t> begin;
  };

  /// Curve key of a leaf that is_valid() rejects (invalid or outside the
  /// root): its level field is out of range, so no quadrant has it.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  /// Build tree \p ti's curve keys (keys_[ti], sized exactly) and its
  /// MarkGrid. The grid level is chosen so cells hold ~2+ leaves on
  /// average (a finer grid would cost more to build than it saves); a
  /// leaf coarser than the grid covers an aligned block of cells that is
  /// contiguous in cell-Morton order. One chunk-parallel pass writes the
  /// keys and the cells with plain stores: a leaf writes only the cells of
  /// its block past the last cell of the leaves before it, so in a sorted
  /// tree every cell is written once, by the first leaf meeting it. Each
  /// chunk writes only between its start cell and the next chunk's (a
  /// running maximum, so even the unsorted leaves replace_leaves accepts
  /// before is_valid() rejects them get disjoint, in-bounds stores;
  /// invalid leaves get kNoKey and write no cell).
  void index_tree(std::size_t ti) {
    static obs::Counter& c_builds = obs::counter("forest.markgrid.builds");
    c_builds.add(1);
    const auto& tree = trees_[ti];
    const std::size_t n = tree.size();
    const std::size_t grain = chunk_grain();
    int lvl = 0;
    while (lvl + 1 <= std::min(R::max_level, kCurveKeyLevel<dim>) &&
           (std::size_t{1} << (dim * (lvl + 1))) * 2 <= n) {
      ++lvl;
    }
    MarkGrid& g = grids_[ti];
    g.shift = dim * (kCurveKeyLevel<dim> - lvl) + kCurveKeyLevelBits;
    const std::size_t cells = std::size_t{1} << (dim * lvl);
    g.begin.assign(cells + 1, n);
    const auto key_of = [&](std::size_t i) {
      return R::is_valid(tree[i]) && R::inside_root(tree[i])
                 ? curve_key<R>(tree[i])
                 : kNoKey;
    };
    // Cells [first, last) met by leaf i, whose curve key is k.
    const auto cells_of = [&](std::size_t i, std::uint64_t k)
        -> std::pair<std::size_t, std::size_t> {
      if (k == kNoKey) {
        return {0, 0};
      }
      const std::uint64_t c0 = k >> g.shift;
      const int l = R::level(tree[i]);
      return {c0, c0 + (l < lvl ? std::uint64_t{1} << (dim * (lvl - l)) : 1)};
    };
    const std::size_t nchunks = batch::chunk_count(n, grain);
    std::vector<std::size_t> start(nchunks + 1, cells);
    start[0] = 0;
    for (std::size_t c = 1; c < nchunks; ++c) {
      const std::size_t last = c * grain - 1;
      start[c] = std::max(start[c - 1], cells_of(last, key_of(last)).second);
    }
    // The old keys go before the new ones are allocated, so a rebuild of
    // every tree never holds two key arrays.
    std::vector<std::uint64_t>& key = keys_[ti];
    std::vector<std::uint64_t>().swap(key);
    key.resize(n);
    parallel_chunks(n, grain,
                    [&](std::size_t c, std::size_t b, std::size_t e) {
      std::size_t next = start[c];
      for (std::size_t i = b; i < e; ++i) {
        key[i] = key_of(i);
        const auto [c0, c1] = cells_of(i, key[i]);
        for (std::size_t cc = std::max(c0, next);
             cc < std::min(c1, start[c + 1]); ++cc) {
          g.begin[cc] = i;
        }
        next = std::max(next, c1);
      }
    });
  }

  /// Index of the last leaf in [lo, hi) of tree \p ti that is <= the
  /// key (curve key \p curve, quadrant \p key) in curve order, or lo - 1
  /// when there is none: a binary search on the integer keys.
  [[nodiscard]] std::ptrdiff_t last_leq(std::size_t ti, std::size_t lo,
                                        std::size_t hi, std::uint64_t curve,
                                        const quad_t& key) const {
    const auto& tree = trees_[ti];
    const auto& keys = keys_[ti];
    std::size_t count = hi - lo;
    while (count > 0) {
      const std::size_t half = count / 2;
      const std::size_t mid = lo + half;
      if (curve_less<R>(curve, key, keys[mid], tree[mid])) {
        count = half;
      } else {
        lo = mid + 1;
        count -= half + 1;
      }
    }
    return static_cast<std::ptrdiff_t>(lo) - 1;
  }

  /// The index of the last leaf of tree \p ti that is <= a key in its
  /// frame (a sweep key, wrapped into the tree or not, or a point), found
  /// through the tree's MarkGrid. In a complete tree the key's enclosing
  /// leaf — or, when the key's region is covered by finer leaves, the
  /// first of them — intersects the grid cell holding the key's lower
  /// corner, so the search local to that cell's leaf range lands where the
  /// whole-tree one does.
  [[nodiscard]] std::ptrdiff_t grid_cursor(std::size_t ti,
                                           std::uint64_t curve,
                                           const quad_t& key) const {
    const MarkGrid& g = grids_[ti];
    const std::uint64_t cell = curve >> g.shift;
    const std::size_t lo = g.begin[cell];
    // lo == n only in a tree that is_valid() rejects: the range is empty.
    const std::size_t hi =
        std::min(std::max(g.begin[cell + 1], lo + 1), trees_[ti].size());
    return last_leq(ti, lo, hi, curve, key);
  }

  /// Sorted, disjoint half-open ranges of global leaf indices.
  using LeafRanges = std::vector<std::pair<gidx_t, gidx_t>>;

  /// Where a sweep key came from: the source leaf, the index of its
  /// displacement in the sweep's offset set and the rank owning the leaf.
  struct SweepSource {
    tree_id_t tree;
    int offset;
    int rank;
    std::size_t leaf;
  };

  /// Append \p parts to \p out, releasing each part once copied, so the
  /// peak holds the result plus one part.
  static void append_parts(std::vector<gidx_t>& out,
                           std::vector<std::vector<gidx_t>>& parts) {
    std::size_t total = out.size();
    for (const auto& part : parts) {
      total += part.size();
    }
    out.reserve(total);
    for (auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
      std::vector<gidx_t>().swap(part);
    }
  }

  /// The one neighbor-key sweep behind the balance mark phase, the
  /// ghost/mirror scan and face iteration. For every leaf of level >=
  /// \p min_level in the sorted, disjoint global ranges \p sources (one
  /// range for the whole forest; a balance frontier and the rank
  /// adjacency's sources, the leaves near a rank boundary, pass many)
  /// and every displacement of \p offsets it produces the same-level
  /// neighbor key and resolves it to j, the index of the last leaf <= key
  /// in the key's tree (-1: none) — the key's enclosing leaf when it has
  /// one, else the leaf right before its finer descendants. It runs per
  /// tree and per chunk of its sources (chunks are cut by source count, so
  /// scattered ranges still balance): each chunk is staged into
  /// level-uniform spans, its keys are produced in bulk through
  /// BatchOps<R>::neighbor_at_offset_n and wrapped across tree faces. Keys
  /// leaving the domain go to \p boundary(out, source); every other key
  /// resolves on the spot through the MarkGrid of the tree it lands in
  /// (grid_cursor) and goes to \p hit(out, tree, j, key, source), whose
  /// SweepSource takes its rank from the chunk's rank range, not a lookup
  /// per key. Actions run concurrently; \p out is a private sink per
  /// chunk, and the global indices pushed there are returned concatenated,
  /// unsorted. Once \p stop is set (an action may set it) the chunks not
  /// yet started are skipped, so a yes/no question answers at its first
  /// hit. The sweep only reads the forest's indexes (tree offsets, curve
  /// keys and MarkGrids), which reindex keeps current.
  template <class Hit, class Boundary>
  std::vector<gidx_t> neighbor_sweep(
      const LeafRanges& sources, const std::vector<std::array<int, 3>>& offsets,
      int min_level, Hit&& hit, Boundary&& boundary,
      const std::atomic<bool>* stop = nullptr) const {
    const auto stopped = [stop] {
      // mo: relaxed — one-way early-exit hint; skipping work on a stale
      // value only costs time, and the caller reads its result after the
      // regions join.
      return stop != nullptr && stop->load(std::memory_order_relaxed);
    };
    // The sources clipped to each tree they meet: local index ranges and
    // their running source counts (start[r]: the sources before range r).
    struct TreeSources {
      std::size_t tree;
      std::vector<std::pair<std::size_t, std::size_t>> ranges;
      std::vector<std::size_t> start;
    };
    std::vector<TreeSources> scan;
    for (auto [a, b] : sources) {
      if (a >= b) {
        continue;
      }
      for (auto t = static_cast<std::size_t>(locate(a).first); a < b; ++t) {
        const gidx_t end = std::min(b, tree_offsets_[t + 1]);
        if (end <= a) {
          continue;  // an empty tree
        }
        if (scan.empty() || scan.back().tree != t) {
          scan.push_back({t, {}, {0}});
        }
        TreeSources& ts = scan.back();
        const gidx_t base = tree_offsets_[t];
        ts.ranges.emplace_back(static_cast<std::size_t>(a - base),
                               static_cast<std::size_t>(end - base));
        ts.start.push_back(ts.start.back() + static_cast<std::size_t>(end - a));
        a = end;
      }
    }
    const std::size_t nscan = scan.size();
    const std::size_t grain = chunk_grain();
    static obs::Counter& c_keys = obs::counter("forest.scan.keys");
    std::vector<gidx_t> out;
    std::vector<std::vector<gidx_t>> source_out(nscan);
    parallel_over(nscan, [&](std::size_t k) {
      const std::size_t ti = scan[k].tree;
      const auto t = static_cast<tree_id_t>(ti);
      const auto& tree = trees_[ti];
      const auto& ranges = scan[k].ranges;
      const auto& start = scan[k].start;
      const std::size_t nchunks = batch::chunk_count(start.back(), grain);
      std::vector<std::vector<gidx_t>> chunk_out(nchunks);
      parallel_chunks(start.back(), grain,
                      [&](std::size_t c, std::size_t cb, std::size_t ce) {
        if (stopped()) {
          return;
        }
        auto& mine = chunk_out[c];
        std::size_t keys = 0;
        IndexedSpanStage<R> staged;
        // Source p of the tree is leaf ranges[r].first + p - start[r].
        auto r = static_cast<std::size_t>(
            std::upper_bound(start.begin(), start.end(), cb) - start.begin() -
            1);
        const std::size_t first = ranges[r].first + (cb - start[r]);
        std::size_t last = first;
        for (std::size_t p = cb; p < ce; ++p) {
          if (p == start[r + 1]) {
            ++r;
          }
          const std::size_t i = ranges[r].first + (p - start[r]);
          if (R::level(tree[i]) >= min_level) {
            staged.add(tree[i], i);
          }
          last = i;
        }
        // The chunk's sources are ascending, so one rank owns them all
        // unless the chunk straddles a rank boundary.
        const gidx_t base = tree_offsets_[ti];
        const int rank_first = owner_rank(base + static_cast<gidx_t>(first));
        const int rank_last = owner_rank(base + static_cast<gidx_t>(last));
        const auto rank_of = [&](std::size_t leaf) {
          return rank_first == rank_last
                     ? rank_first
                     : owner_rank(base + static_cast<gidx_t>(leaf));
        };
        std::vector<std::int64_t> ox, oy, oz;
        for (auto l = static_cast<std::size_t>(min_level);
             l < staged.num_levels(); ++l) {
          const auto& span = staged.span(l);
          if (span.empty()) {
            continue;
          }
          const auto& src = staged.sources(l);
          ox.resize(span.size());
          oy.resize(span.size());
          oz.resize(span.size());
          for (std::size_t o = 0; o < offsets.size(); ++o) {
            const std::array<int, 3>& d = offsets[o];
            BatchOps<R>::neighbor_at_offset_n(span.data(), ox.data(),
                                              oy.data(), oz.data(),
                                              span.size(), d[0], d[1], d[2],
                                              static_cast<int>(l));
            for (std::size_t i = 0; i < span.size(); ++i) {
              const SweepSource from{t, static_cast<int>(o), rank_of(src[i]),
                                     src[i]};
              std::int64_t pos[3] = {ox[i], oy[i], oz[i]};
              std::array<int, 3> step{};
              const tree_id_t target = wrap_key(t, pos, step);
              if (target < 0) {
                boundary(mine, from);  // physical boundary
                continue;
              }
              const quad_t key = from_canonical<R>(CanonicalQuadrant{
                  pos[0], pos[1], pos[2], static_cast<int>(l)});
              const auto to = static_cast<std::size_t>(target);
              ++keys;
              hit(mine, to, grid_cursor(to, curve_key<R>(key), key), key,
                  from);
            }
          }
        }
        if (keys > 0) {
          c_keys.add(keys);
        }
      });
      append_parts(source_out[k], chunk_out);
    });
    append_parts(out, source_out);
    return out;
  }

  // ------------------------------------------------ sweep consumers

  /// Whether the leaf j a sweep key resolved to violates 2:1 against the
  /// key: it encloses the key and is two or more levels coarser.
  [[nodiscard]] bool must_split(std::size_t ti, std::ptrdiff_t j,
                                const quad_t& key) const {
    if (j < 0) {
      return false;
    }
    const quad_t& leaf = trees_[ti][static_cast<std::size_t>(j)];
    return R::level(leaf) < R::level(key) - 1 && encloses(leaf, key);
  }

  /// Balance mark phase over the leaves of \p sources: split[t][i] = kSplit
  /// for every leaf two or more levels coarser than a same-level neighbor
  /// key of a source under \p kind (a 2:1 violation). Leaves below level
  /// 2 emit no keys: their neighbors can never be two levels coarser.
  /// again[t][i] = 1 for every source whose key marked a leaf three or
  /// more levels coarser: that key lands in a child of the split leaf that
  /// is still two levels too coarse, so the next iteration must sweep the
  /// source again.
  void mark_splits(BalanceKind kind, const LeafRanges& sources,
                   std::vector<std::vector<std::uint8_t>>& split,
                   std::vector<std::vector<std::uint8_t>>& again) const {
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      split[t].assign(trees_[t].size(), kKeep);
      again[t].assign(trees_[t].size(), 0);
    }
    (void)neighbor_sweep(
        sources, neighbor_offsets(kind), 2,
        [&](std::vector<gidx_t>&, std::size_t ti, std::ptrdiff_t j,
            const quad_t& key, const SweepSource& from) {
          if (!must_split(ti, j, key)) {
            return;
          }
          const auto leaf = static_cast<std::size_t>(j);
          // mo: relaxed — idempotent mark byte (chunks may mark the same
          // leaf); readers run after the regions join.
          std::atomic_ref<std::uint8_t>(split[ti][leaf])
              .store(kSplit, std::memory_order_relaxed);
          if (R::level(key) - R::level(trees_[ti][leaf]) >= 3) {
            // A plain store: every key of a source resolves in its chunk.
            again[static_cast<std::size_t>(from.tree)][from.leaf] = 1;
          }
        },
        [](std::vector<gidx_t>&, const SweepSource&) {});
  }

  /// The sources of the balance iteration after one that split the leaves
  /// marked in \p split and reindexed: the children of every split leaf
  /// plus every unsplit leaf marked in \p again (both bitmaps indexed as
  /// before the split). Walking the old indices in order computes where
  /// each lands, i + S(i)*(2^d - 1) with S(i) the splits below i in its
  /// tree, as in rewrite_leaves. Every other (source, leaf) pair existed
  /// unchanged in the iteration before, which would have marked it.
  [[nodiscard]] LeafRanges balance_frontier(
      const std::vector<std::vector<std::uint8_t>>& split,
      const std::vector<std::vector<std::uint8_t>>& again) const {
    LeafRanges next;
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      gidx_t g = tree_offsets_[t];
      for (std::size_t i = 0; i < split[t].size(); ++i) {
        const gidx_t width = split[t][i] ? dims::num_children : 1;
        if (split[t][i] || again[t][i]) {
          if (!next.empty() && next.back().second == g) {
            next.back().second += width;
          } else {
            next.emplace_back(g, g + width);
          }
        }
        g += width;
      }
    }
    return next;
  }

  /// Per-rank lists of global leaf indices in one flat array: rank r's
  /// list is items[offsets[r], offsets[r + 1]), sorted.
  struct RankLists {
    std::vector<gidx_t> items;
    std::vector<std::size_t> offsets;  ///< size num_ranks()+1

    [[nodiscard]] std::span<const gidx_t> of(int rank) const {
      const auto r = static_cast<std::size_t>(rank);
      return std::span<const gidx_t>(items).subspan(
          offsets[r], offsets[r + 1] - offsets[r]);
    }
  };

  /// Every rank's ghost layer and mirrors, derived from the leaves and the
  /// partition.
  struct RankAdjacency {
    RankLists ghosts;
    RankLists mirrors;
  };

  /// The rank adjacency of the current mesh and partition, built on the
  /// first read after either changed.
  const RankAdjacency& adjacency() const {
    return adjacency_.get([this] { return build_adjacency(); });
  }

  /// The leaves that some leaf of another rank could touch, in sorted
  /// global ranges: the sources of the adjacency sweep. Leaf s (side h,
  /// lower corner c, rank r) is skipped when its rank owns every leaf its
  /// kFull neighborhood, the box [c - h, c + 2h) on each axis, can meet
  /// (p4est_comm_neighborhood_owned's test):
  ///   - the box is clipped at the tree's faces. A tree it reaches across a
  ///     face, edge or corner (a periodic wrap back into the source tree
  ///     included) must be r's whole;
  ///   - inside the tree, the level-K cells of the clipped box's lowest and
  ///     highest points must lie between the leaf just before r's range in
  ///     this tree, which must end at or before the first cell, and the
  ///     leaf just after it, which must start past the second. A leaf
  ///     deeper than K counts as its whole level-K cell, so a rank
  ///     boundary inside a cell keeps s.
  /// Morton order is monotone in each coordinate, so every cell of the box
  /// lies between its two corner cells along the curve, and a leaf that
  /// touches s meets the box, hence belongs to r. A skipped leaf would
  /// emit no hit, and no leaf of another rank touches it. An invalid leaf,
  /// and one whose test meets an invalid leaf, is a source. One
  /// chunk-parallel pass on the forest pool, with one owner lookup per
  /// chunk.
  [[nodiscard]] LeafRanges adjacency_sources() const {
    constexpr int k = kCurveKeyLevel<dim>;
    const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
    const std::uint64_t all_cells = std::uint64_t{1} << (dim * k);
    const std::uint64_t level_bits =
        (std::uint64_t{1} << kCurveKeyLevelBits) - 1;
    const std::size_t grain = chunk_grain();
    std::vector<std::vector<LeafRanges>> found(trees_.size());
    parallel_over(trees_.size(), [&](std::size_t ti) {
      const auto t = static_cast<tree_id_t>(ti);
      const auto& tree = trees_[ti];
      const auto& keys = keys_[ti];
      const std::size_t n = tree.size();
      const gidx_t base = tree_offsets_[ti];
      found[ti].resize(batch::chunk_count(n, grain));
      parallel_chunks(n, grain,
                      [&](std::size_t c, std::size_t b, std::size_t e) {
        LeafRanges& mine = found[ti][c];
        int rank = owner_rank(base + static_cast<gidx_t>(b));
        gidx_t first = 0;
        gidx_t last = 0;
        std::uint64_t cells_lo = 0;  // the first cell past the leaves before
        std::uint64_t cells_hi = 0;  // the first cell of the leaves after
        // r's local range [a, z) in this tree is bounded by leaves a - 1
        // and z. A key holds min(level, K) in its low bits, so a leaf
        // deeper than K ends one cell past its own.
        const auto enter = [&] {
          std::tie(first, last) = rank_range(rank);
          const auto a =
              static_cast<std::size_t>(std::max(first, base) - base);
          const auto z = static_cast<std::size_t>(
              std::min(last, base + static_cast<gidx_t>(n)) - base);
          cells_lo = 0;
          if (a > 0) {
            const std::uint64_t before = keys[a - 1];
            const auto level = static_cast<int>(before & level_bits);
            cells_lo = before == kNoKey
                           ? all_cells
                           : (before >> kCurveKeyLevelBits) +
                                 (std::uint64_t{1} << (dim * (k - level)));
          }
          cells_hi = all_cells;
          if (z < n) {
            cells_hi = keys[z] == kNoKey ? 0 : keys[z] >> kCurveKeyLevelBits;
          }
        };
        enter();
        const auto owns_tree = [&](tree_id_t other) {
          const auto o = static_cast<std::size_t>(other);
          return tree_offsets_[o] >= first && tree_offsets_[o + 1] <= last;
        };
        const auto is_source = [&](std::size_t i) {
          if (keys[i] == kNoKey) {
            return true;
          }
          const CanonicalQuadrant q = to_canonical<R>(tree[i]);
          const std::int64_t h = root >> q.level;
          const std::int64_t pos[3] = {q.x, q.y, q.z};
          std::int64_t lo[3] = {0, 0, 0};  // the clipped box's lowest point
          std::int64_t hi[3] = {0, 0, 0};  // and its highest
          int lo_step[3] = {0, 0, 0};
          int hi_step[3] = {0, 0, 0};
          for (int a = 0; a < dim; ++a) {
            lo[a] = pos[a] - h;
            hi[a] = pos[a] + 2 * h - 1;
            lo_step[a] = lo[a] < 0 ? -1 : 0;
            hi_step[a] = hi[a] >= root ? 1 : 0;
            lo[a] = std::max<std::int64_t>(lo[a], 0);
            hi[a] = std::min(hi[a], root - 1);
          }
          if (curve_cell<dim>(lo[0], lo[1], lo[2]) < cells_lo ||
              curve_cell<dim>(hi[0], hi[1], hi[2]) >= cells_hi) {
            return true;
          }
          for (int dz = lo_step[2]; dz <= hi_step[2]; ++dz) {
            for (int dy = lo_step[1]; dy <= hi_step[1]; ++dy) {
              for (int dx = lo_step[0]; dx <= hi_step[0]; ++dx) {
                if (dx == 0 && dy == 0 && dz == 0) {
                  continue;
                }
                const tree_id_t other =
                    conn_.tree_offset_neighbor(t, dx, dy, dz);
                if (other >= 0 && !owns_tree(other)) {
                  return true;
                }
              }
            }
          }
          return false;
        };
        for (std::size_t i = b; i < e; ++i) {
          const gidx_t g = base + static_cast<gidx_t>(i);
          if (g >= last) {
            while (g >= rank_range(rank).second) {
              ++rank;
            }
            enter();
          }
          if (!is_source(i)) {
            continue;
          }
          if (!mine.empty() && mine.back().second == g) {
            ++mine.back().second;
          } else {
            mine.emplace_back(g, g + 1);
          }
        }
      });
    });
    LeafRanges sources;
    for (const auto& per_chunk : found) {
      for (const LeafRanges& part : per_chunk) {
        sources.insert(sources.end(), part.begin(), part.end());
      }
    }
    return sources;
  }

  /// The rank adjacency from one neighbor_sweep with the kFull offsets
  /// over the adjacency_sources, the leaves some leaf of another rank
  /// could touch. A key touches its enclosing leaf, or else those of its
  /// finer descendants that touch the source leaf. When source s touches
  /// leaf t of another rank, t is a ghost of owner(s) and s a mirror of
  /// it; t is then a source too, so each touching pair is seen from both
  /// sides. Mirrors are marked in a per-leaf byte map; the sweep pushes
  /// only the ghost hits, each as the two entries (owner(s), t), and a
  /// counting pass by rank lays them out flat.
  [[nodiscard]] RankAdjacency build_adjacency() const {
    obs::TraceSpan span("forest", "adjacency_scan");
    static obs::Counter& c_builds = obs::counter("forest.adjacency.builds");
    static obs::Counter& c_swept =
        obs::counter("forest.adjacency.swept_leaves");
    c_builds.add(1);
    const gidx_t n = num_quadrants();
    span.arg("range", static_cast<std::int64_t>(n));
    const LeafRanges sources = adjacency_sources();
    gidx_t swept = 0;
    for (const auto& [a, b] : sources) {
      swept += b - a;
    }
    c_swept.add(static_cast<std::uint64_t>(swept));
    span.arg("swept", static_cast<std::int64_t>(swept));
    const auto offsets = neighbor_offsets(BalanceKind::kFull);
    std::vector<std::uint8_t> mirror(static_cast<std::size_t>(n), 0);
    const std::vector<gidx_t> hits = neighbor_sweep(
        sources, offsets, 0,
        [&](std::vector<gidx_t>& out, std::size_t ti, std::ptrdiff_t j,
            const quad_t& key, const SweepSource& from) {
          const gidx_t s = global_index(from.tree, from.leaf);
          const int rank = from.rank;
          const auto [first, last] = rank_range(rank);
          const auto& tree = trees_[ti];
          const auto emit = [&](std::size_t leaf) {
            const gidx_t t = global_index(static_cast<tree_id_t>(ti), leaf);
            if (t >= first && t < last) {
              return;
            }
            // A plain store: every key of a source resolves in its chunk.
            mirror[static_cast<std::size_t>(s)] = 1;
            // Neighboring sources often hit the same coarser leaf: drop
            // the repeat of the pair just pushed.
            const std::size_t m = out.size();
            if (m < 2 || out[m - 2] != rank || out[m - 1] != t) {
              out.push_back(rank);
              out.push_back(t);
            }
          };
          if (j >= 0 && encloses(tree[static_cast<std::size_t>(j)], key)) {
            emit(static_cast<std::size_t>(j));
            return;
          }
          // The descendants run contiguously from j + 1. The source
          // leaf's domain in this tree's frame is the key minus the offset
          // displacement: a tree-face wrap cancels axis by axis.
          CanonicalQuadrant ref = to_canonical<R>(key);
          const std::int64_t h = std::int64_t{1}
                                 << (kCanonicalLevel - ref.level);
          const auto& d = offsets[static_cast<std::size_t>(from.offset)];
          ref.x -= d[0] * h;
          ref.y -= d[1] * h;
          ref.z -= d[2] * h;
          for (auto r = static_cast<std::size_t>(j + 1);
               r < tree.size() && R::is_ancestor(key, tree[r]); ++r) {
            if (canonical_touch(to_canonical<R>(tree[r]), ref)) {
              emit(r);
            }
          }
        },
        [](std::vector<gidx_t>&, const SweepSource&) {});

    const std::size_t p = rank_offsets_.size() - 1;
    RankAdjacency adj;
    // Mirrors: the marked leaves in curve order, cut at the rank offsets.
    adj.mirrors.offsets.assign(p + 1, 0);
    for (std::size_t r = 0; r < p; ++r) {
      for (gidx_t g = rank_offsets_[r]; g < rank_offsets_[r + 1]; ++g) {
        if (mirror[static_cast<std::size_t>(g)] != 0) {
          adj.mirrors.items.push_back(g);
        }
      }
      adj.mirrors.offsets[r + 1] = adj.mirrors.items.size();
    }
    // Ghosts: the hits bucketed by rank (counting sort), then each rank's
    // bucket sorted and deduplicated.
    std::vector<std::size_t> start(p + 1, 0);
    for (std::size_t k = 0; k < hits.size(); k += 2) {
      ++start[static_cast<std::size_t>(hits[k]) + 1];
    }
    for (std::size_t r = 0; r < p; ++r) {
      start[r + 1] += start[r];
    }
    std::vector<gidx_t> bucketed(hits.size() / 2);
    {
      std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
      for (std::size_t k = 0; k < hits.size(); k += 2) {
        bucketed[cursor[static_cast<std::size_t>(hits[k])]++] = hits[k + 1];
      }
    }
    std::vector<std::size_t> unique_end(p);
    parallel_over(p, [&](std::size_t r) {
      const auto b = bucketed.begin() + static_cast<std::ptrdiff_t>(start[r]);
      const auto e =
          bucketed.begin() + static_cast<std::ptrdiff_t>(start[r + 1]);
      std::sort(b, e);
      unique_end[r] = static_cast<std::size_t>(std::unique(b, e) -
                                               bucketed.begin());
    });
    adj.ghosts.offsets.assign(p + 1, 0);
    for (std::size_t r = 0; r < p; ++r) {
      adj.ghosts.items.insert(
          adj.ghosts.items.end(),
          bucketed.begin() + static_cast<std::ptrdiff_t>(start[r]),
          bucketed.begin() + static_cast<std::ptrdiff_t>(unique_end[r]));
      adj.ghosts.offsets[r + 1] = adj.ghosts.items.size();
    }
    return adj;
  }

  /// Whether two canonical domains touch (share at least a point); the
  /// caller is responsible for expressing both in the same frame.
  static bool canonical_touch(const CanonicalQuadrant& a,
                              const CanonicalQuadrant& b) {
    const std::int64_t ha = std::int64_t{1} << (kCanonicalLevel - a.level);
    const std::int64_t hb = std::int64_t{1} << (kCanonicalLevel - b.level);
    const std::int64_t pa[3] = {a.x, a.y, a.z};
    const std::int64_t pb[3] = {b.x, b.y, b.z};
    for (int i = 0; i < dim; ++i) {
      if (pa[i] + ha < pb[i] || pb[i] + hb < pa[i]) {
        return false;
      }
    }
    return true;
  }

  /// Recursive completeness test of a leaf span against an ancestor.
  bool is_complete_range(const quad_t& anc, const quad_t* begin,
                         const quad_t* end) const {
    if (begin == end) {
      return false;  // a region left uncovered
    }
    if (end - begin == 1 && R::equal(*begin, anc)) {
      return true;
    }
    if (R::level(anc) >= R::max_level) {
      return false;
    }
    const quad_t* pos = begin;
    for (int c = 0; c < dims::num_children; ++c) {
      const quad_t ch = R::child(anc, c);
      const quad_t* stop =
          std::partition_point(pos, end, [&](const quad_t& leaf) {
            return R::equal(leaf, ch) || R::is_ancestor(ch, leaf);
          });
      if (!is_complete_range(ch, pos, stop)) {
        return false;
      }
      pos = stop;
    }
    return pos == end;
  }

  template <class Fn>
  bool search_recursion(tree_id_t t, const quad_t& anc, std::size_t begin,
                        std::size_t end, Fn& cb) const {
    const auto& tree = trees_[static_cast<std::size_t>(t)];
    const bool is_leaf =
        end - begin == 1 && R::equal(tree[begin], anc);
    if (!cb(t, anc, begin, end, is_leaf) || is_leaf) {
      return true;
    }
    if (R::level(anc) >= R::max_level) {
      return true;
    }
    std::size_t pos = begin;
    for (int c = 0; c < dims::num_children && pos < end; ++c) {
      const quad_t ch = R::child(anc, c);
      const auto stop = static_cast<std::size_t>(
          std::partition_point(tree.begin() + static_cast<std::ptrdiff_t>(pos),
                               tree.begin() + static_cast<std::ptrdiff_t>(end),
                               [&](const quad_t& leaf) {
                                 return R::equal(leaf, ch) ||
                                        R::is_ancestor(ch, leaf);
                               }) -
          tree.begin());
      if (stop > pos) {
        search_recursion(t, ch, pos, stop, cb);
      }
      pos = stop;
    }
    return true;
  }

  // ----------------------------------------------------- point search core

  /// Representation key of a query point: the max_level quadrant whose
  /// half-open box contains the point. Masking the coordinates down to
  /// max_level alignment keeps from_canonical's grid precondition.
  [[nodiscard]] quad_t point_key(const PointQuery& p) const {
    const std::int64_t mask =
        ~((std::int64_t{1} << (kCanonicalLevel - R::max_level)) - 1);
    return from_canonical<R>(
        CanonicalQuadrant{p.x & mask, p.y & mask, p.z & mask, R::max_level});
  }

  Connectivity conn_;
  par::Communicator comm_;
  std::vector<std::vector<quad_t>> trees_;
  bool payload_enabled_ = false;
  std::vector<std::vector<std::uint64_t>> payloads_;
  std::vector<gidx_t> tree_offsets_;        ///< size num_trees()+1
  std::vector<std::vector<std::uint64_t>> keys_;  ///< curve keys (reindex)
  std::vector<MarkGrid> grids_;             ///< one per tree (reindex)
  std::vector<std::int64_t> rank_offsets_;  ///< size num_ranks()+1
  detail::LazyIndex<RankAdjacency> adjacency_;  ///< reindex, partition
};

}  // namespace qforest
