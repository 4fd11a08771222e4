#pragma once
/// \file workloads.hpp
/// \brief The three benchmark workloads, one state object per
/// representation. main.cpp times setup() and step(); everything in
/// check() and counts() runs outside the timed region.
///
///   amr_front      the mesh is rewritten every step (adapt, balance,
///                  partition, ghost/mirror rebuild, exchange, faces)
///   solver_static  a fixed mesh is only read (exchange + face sweeps,
///                  then one batched point search)
///   paper_ops      the core ops alone (paper §3.1, single-threaded)

#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core_sweep.hpp"
#include "forest/forest.hpp"
#include "forest/io.hpp"
#include "span_log.hpp"
#include "util/random.hpp"

namespace qfb {

using qforest::BalanceKind;
using qforest::Connectivity;
using qforest::FaceInfo;
using qforest::Forest;
using qforest::gidx_t;
using qforest::GhostLayer;
using qforest::PointQuery;
using qforest::RankWorkSplit;
using qforest::tree_id_t;

/// Tally fields.
enum : std::size_t { kRefineCalls, kRefined, kCoarsenCalls, kCoarsened };
enum : std::size_t { kFaces, kFaceSum };

/// Shared by the four representation states of one run.
struct Ctx {
  std::uint64_t seed = 1;
  int ranks = 4;
  bool counting = false;  ///< adaptation callbacks tally (traced run only)
  Tally adapt;            ///< refine/coarsen callback calls and accepts
  Tally faces;            ///< face count and order-free face digest
  std::vector<PointQuery> points;    ///< solver_static: this round's queries
  std::vector<WorkItem> paper_items;  ///< paper_ops input
};

/// Outputs of one step that every representation must reproduce exactly
/// (`agree`), and this representation's own checks (`ok`).
struct StepCheck {
  std::vector<std::uint64_t> agree;
  bool ok = true;
  const char* what = "";
};

/// Work sizes of the last step, for the traced run's count metrics.
struct StepCounts {
  double leaves = 0;
  double balance_splits = 0;
  double ghosts = 0;
  double mirrors = 0;
  double exchange_bytes = 0;  ///< computed from the ghost sizes
  double rank_s_max = 0;      ///< summed over the step's exchanges
  double rank_imbalance = 0;  ///< max/mean rank time, mean over exchanges
};

inline constexpr int kBaseLevel = 3;
inline constexpr int kFrontLevel = 6;
inline constexpr int kStaticLevel = 7;
inline constexpr double kBandRadius = 0.5;
inline constexpr double kOrbitRadius = 0.22;
inline constexpr int kOrbitSteps = 24;
inline constexpr int kSolverStages = 4;
inline constexpr int kInteriorWork = 6;  ///< mixing rounds per interior leaf
inline constexpr std::size_t kSearchPoints = 200000;

inline Connectivity brick() { return Connectivity::brick3d(2, 2, 1); }

/// Spherical band through the 2x2x1 brick; its centre orbits the brick's
/// middle, one orbit every kOrbitSteps steps, starting at a seeded phase.
struct Band {
  double cx, cy, cz, radius;

  static Band at(std::uint64_t seed, int step) {
    constexpr double kTwoPi = 2 * std::numbers::pi;
    const double phase = static_cast<double>(seed % 1000) * 0.001 * kTwoPi;
    const double a = phase + kTwoPi * step / kOrbitSteps;
    return {1.0 + kOrbitRadius * std::cos(a), 1.0 + kOrbitRadius * std::sin(a),
            0.5, kBandRadius};
  }
};

/// Base class of the two forest workloads: the mesh, its per-rank ghost
/// and mirror index, the payload exchange and the face sweep.
template <class R>
class ForestState {
 public:
  using quad_t = typename R::quad_t;

  explicit ForestState(Ctx& ctx)
      : ctx_(ctx), f_(Forest<R>::new_root(brick(), ctx.ranks)) {
    const Connectivity conn = brick();
    for (tree_id_t t = 0; t < conn.num_trees(); ++t) {
      const auto c = conn.tree_coords(t);
      origin_.push_back({static_cast<double>(c[0]), static_cast<double>(c[1]),
                         static_cast<double>(c[2])});
    }
  }

  [[nodiscard]] const Forest<R>& forest() const { return f_; }

  /// Core sweep over the mesh's own leaves (traced run only).
  void core_probe() {
    auto set = CoreSet<R>::build(CoreSet<R>::items_of(f_));
    std::uint64_t sink = core_sweep(set);
    qforest::bench::do_not_optimize(sink);
    probe_quads_ = static_cast<double>(set.quads.size());
    probe_ns_ = set.op_ns;
  }
  [[nodiscard]] double probe_quads() const { return probe_quads_; }
  [[nodiscard]] const std::array<std::int64_t, kCoreOps>& core_op_ns() const {
    return probe_ns_;
  }

  [[nodiscard]] StepCounts counts() const {
    StepCounts c = last_;
    c.leaves = static_cast<double>(f_.num_quadrants());
    c.ghosts = static_cast<double>(ghost_total_);
    c.mirrors = static_cast<double>(mirror_total_);
    return c;
  }

 protected:
  /// Leaf in the band: its centre lies within one leaf size of the
  /// sphere (the refinement criterion of the repository's forest benches,
  /// in brick coordinates).
  bool near(const Band& b, tree_id_t t, const quad_t& q) const {
    const qforest::CanonicalQuadrant c = qforest::to_canonical<R>(q);
    const double unit = std::ldexp(1.0, -qforest::kCanonicalLevel);
    const double h = std::ldexp(1.0, -c.level);
    const auto& o = origin_[static_cast<std::size_t>(t)];
    const double dx = o[0] + static_cast<double>(c.x) * unit + h / 2 - b.cx;
    const double dy = o[1] + static_cast<double>(c.y) * unit + h / 2 - b.cy;
    const double dz = o[2] + static_cast<double>(c.z) * unit + h / 2 - b.cz;
    return std::abs(std::sqrt(dx * dx + dy * dy + dz * dz) - b.radius) < h;
  }

  void refine_to(const Band& b, int max_level) {
    const Span s("forest.refine");
    const bool count = ctx_.counting;
    f_.refine(true, [&](tree_id_t t, const quad_t& q) {
      const bool yes = R::level(q) < max_level && near(b, t, q);
      if (count) {
        ctx_.adapt.add(kRefineCalls, 1);
        ctx_.adapt.add(kRefined, yes ? 1 : 0);
      }
      return yes;
    });
  }

  void coarsen_outside(const Band& b) {
    const Span s("forest.coarsen");
    const bool count = ctx_.counting;
    f_.coarsen(true, [&](tree_id_t t, const quad_t* fam) {
      const bool yes =
          R::level(fam[0]) > kBaseLevel && !near(b, t, R::parent(fam[0]));
      if (count) {
        ctx_.adapt.add(kCoarsenCalls, 1);
        ctx_.adapt.add(kCoarsened, yes ? 1 : 0);
      }
      return yes;
    });
  }

  void balance() {
    const gidx_t before = f_.num_quadrants();
    {
      const Span s("forest.balance");
      f_.balance(BalanceKind::kFull);
    }
    last_.balance_splits =
        static_cast<double>(f_.num_quadrants() - before) / 7.0;
  }

  void partition() {
    const Span s("forest.partition");
    f_.partition();
  }

  /// Payload of every leaf: a seeded hash of its global index.
  void init_payload() {
    f_.enable_payload();
    for (tree_id_t t = 0; t < f_.num_trees(); ++t) {
      for (std::size_t i = 0; i < f_.tree_quadrants(t).size(); ++i) {
        f_.payload(t, i) = mix64(ctx_.seed ^ static_cast<std::uint64_t>(
                                                 f_.global_index(t, i) + 1));
      }
    }
  }

  /// ghost_layer(r) and rank_work_split(r) for every rank.
  void index_ranks() {
    ghosts_.clear();
    splits_.clear();
    ghost_total_ = 0;
    mirror_total_ = 0;
    for (int r = 0; r < f_.num_ranks(); ++r) {
      {
        const Span s("forest.ghost_layer");
        ghosts_.push_back(f_.ghost_layer(r));
      }
      {
        const Span s("forest.rank_work_split");
        splits_.push_back(f_.rank_work_split(r));
      }
      ghost_total_ += ghosts_.back().entries.size();
      mirror_total_ += splits_.back().boundary.size();
    }
    exchange_fresh_ = true;
  }

  /// One overlapped payload exchange; the interior hook mixes the
  /// payloads of the rank's interior leaves while messages are in flight,
  /// the boundary hook folds mirrors and the received ghost payloads.
  void exchange() {
    const Span s("io.exchange");
    const int parent = s.id();
    qforest::GhostExchangeOptions opt;
    opt.overlap = true;
    sinks_.assign(static_cast<std::size_t>(f_.num_ranks()), 0);
    const auto work = [&](gidx_t a, gidx_t b) {
      std::uint64_t acc = 0;
      if (a >= b) {
        return acc;
      }
      auto [t, i] = f_.locate(a);
      const std::vector<std::uint64_t>* pay = &f_.tree_payloads(t);
      for (gidx_t g = a; g < b; ++g, ++i) {
        while (i >= pay->size()) {
          pay = &f_.tree_payloads(++t);
          i = 0;
        }
        std::uint64_t x = (*pay)[i];
        for (int k = 0; k < kInteriorWork; ++k) {
          x = mix64(x + static_cast<std::uint64_t>(k));
        }
        acc += x;
      }
      return acc;
    };
    qforest::GhostExchangeResult res = qforest::exchange_ghost_payloads(
        f_, ghosts_, opt,
        [&](int rank) {
          const Span h("app.interior", parent);
          std::uint64_t acc = 0;
          for (const auto& [a, b] :
               splits_[static_cast<std::size_t>(rank)].interior) {
            acc += work(a, b);
          }
          sinks_[static_cast<std::size_t>(rank)] += acc;
        },
        [&](int rank, const std::vector<std::uint64_t>& ghost_payloads) {
          const Span h("app.boundary", parent);
          std::uint64_t acc = 0;
          for (const gidx_t g : splits_[static_cast<std::size_t>(rank)].boundary) {
            acc += work(g, g + 1);
          }
          for (const std::uint64_t v : ghost_payloads) {
            acc += mix64(v);
          }
          sinks_[static_cast<std::size_t>(rank)] += acc;
        });
    qforest::bench::do_not_optimize(sinks_[0]);
    const auto p = static_cast<double>(f_.num_ranks());
    // Per (requester, owner) pair: a u64-counted index array out, the
    // echoed indices and the payloads back.
    last_.exchange_bytes +=
        24.0 * p * (p - 1) + 24.0 * static_cast<double>(ghost_total_);
    double mx = 0;
    double sum = 0;
    for (const double v : res.rank_seconds) {
      mx = std::max(mx, v);
      sum += v;
    }
    last_.rank_s_max += mx;
    exchange_imbalance_.push_back(sum > 0 ? mx / (sum / p) : 1.0);
    if (exchange_fresh_) {
      exchanged_ = std::move(res.payloads);
    }
  }

  /// iterate_faces with a per-face flux of the two sides' payloads, kept
  /// as a count and an order-independent sum.
  void faces() {
    const Span s("forest.iterate_faces");
    f_.iterate_faces([&](const FaceInfo<R>& fi) {
      const std::uint64_t g0 = static_cast<std::uint64_t>(
          f_.global_index(fi.tree[0], fi.leaf_index[0]));
      const std::uint64_t p0 = f_.tree_payloads(fi.tree[0])[fi.leaf_index[0]];
      std::uint64_t key = g0 << 4 | static_cast<std::uint64_t>(fi.face[0]);
      std::uint64_t p1 = 0;
      if (!fi.is_boundary) {
        key ^= static_cast<std::uint64_t>(
                   f_.global_index(fi.tree[1], fi.leaf_index[1]))
               << 36;
        p1 = f_.tree_payloads(fi.tree[1])[fi.leaf_index[1]];
      }
      ctx_.faces.add(kFaces, 1);
      ctx_.faces.add(kFaceSum, mix64(key ^ (p0 + 3 * p1)));
    });
  }

  void begin_step() {
    last_ = StepCounts{};
    exchange_imbalance_.clear();
    ctx_.faces.reset();
  }
  void end_step() {
    double sum = 0;
    for (const double v : exchange_imbalance_) {
      sum += v;
    }
    last_.rank_imbalance =
        exchange_imbalance_.empty()
            ? 0
            : sum / static_cast<double>(exchange_imbalance_.size());
    faces_ = ctx_.faces.sum(kFaces);
    face_sum_ = ctx_.faces.sum(kFaceSum);
  }

  /// Shared checks: mesh identity and, for a mesh version exchanged for
  /// the first time, the exchanged payloads against the shared-memory
  /// reference Forest::ghost_exchange.
  StepCheck check_forest() {
    StepCheck c;
    c.agree = {static_cast<std::uint64_t>(f_.num_quadrants()),
               qforest::forest_checksum(f_), faces_, face_sum_};
    if (exchange_fresh_) {
      exchange_fresh_ = false;
      for (int r = 0; r < f_.num_ranks(); ++r) {
        if (exchanged_[static_cast<std::size_t>(r)] !=
            f_.ghost_exchange(r, ghosts_[static_cast<std::size_t>(r)])) {
          c.ok = false;
          c.what = "exchanged payloads differ from Forest::ghost_exchange";
        }
      }
      exchanged_.clear();
    }
    return c;
  }

  Ctx& ctx_;
  Forest<R> f_;
  std::vector<std::array<double, 3>> origin_;
  std::vector<GhostLayer<R>> ghosts_;
  std::vector<RankWorkSplit> splits_;
  std::vector<std::uint64_t> sinks_;
  std::vector<std::vector<std::uint64_t>> exchanged_;
  std::vector<double> exchange_imbalance_;
  bool exchange_fresh_ = false;
  std::size_t ghost_total_ = 0;
  std::size_t mirror_total_ = 0;
  std::uint64_t faces_ = 0;
  std::uint64_t face_sum_ = 0;
  StepCounts last_;
  double probe_quads_ = 0;
  std::array<std::int64_t, kCoreOps> probe_ns_{};
};

/// amr_front: a band that moves every step; the mesh follows it.
template <class R>
class AmrFront : public ForestState<R> {
 public:
  using Base = ForestState<R>;
  explicit AmrFront(Ctx& ctx) : Base(ctx) {}

  void setup() {
    this->f_ = Forest<R>::new_uniform(brick(), kBaseLevel, this->ctx_.ranks);
    this->refine_to(Band::at(this->ctx_.seed, 0), kFrontLevel);
    this->balance();
    this->partition();
    this->init_payload();
    this->index_ranks();
  }

  void step(int k) {
    const Span s("step");
    this->begin_step();
    const Band b = Band::at(this->ctx_.seed, k + 1);
    this->refine_to(b, kFrontLevel);
    this->coarsen_outside(b);
    this->balance();
    this->partition();
    this->index_ranks();
    this->exchange();
    this->faces();
    this->end_step();
  }

  StepCheck check() { return this->check_forest(); }
};

/// solver_static: a fixed level-7 band mesh, read by four solver stages
/// (exchange + face sweep) and one batched point search per step.
template <class R>
class SolverStatic : public ForestState<R> {
 public:
  using Base = ForestState<R>;
  explicit SolverStatic(Ctx& ctx) : Base(ctx) {}

  void setup() {
    this->f_ = Forest<R>::new_uniform(brick(), kBaseLevel, this->ctx_.ranks);
    this->refine_to(Band::at(this->ctx_.seed, 0), kStaticLevel);
    this->balance();
    this->partition();
    this->init_payload();
    this->index_ranks();
  }

  void step(int /*k*/) {
    const Span s("step");
    this->begin_step();
    // The mesh is fixed: every stage reuses the set-up ghost/mirror index.
    for (int stage = 0; stage < kSolverStages; ++stage) {
      this->exchange();
      this->faces();
    }
    {
      const Span q("forest.search_points");
      found_ = this->f_.search_points(this->ctx_.points);
    }
    this->end_step();
  }

  StepCheck check() {
    StepCheck c = this->check_forest();
    Digest d;
    for (const gidx_t g : found_) {
      d.add(static_cast<std::uint64_t>(g));
    }
    c.agree.push_back(d.h);
    return c;
  }

 private:
  std::vector<gidx_t> found_;
};

/// paper_ops: one single-threaded sweep of the twelve core ops over the
/// paper's 2,396,745 quadrants.
template <class R>
class PaperOps {
 public:
  explicit PaperOps(Ctx& ctx) : ctx_(ctx) {}

  void setup() { set_ = CoreSet<R>::build(ctx_.paper_items); }

  void step(int /*k*/) {
    const Span s("step");
    sink_ = core_sweep(*set_);
  }

  /// The first step's results are compared across representations through
  /// to_canonical; every later step must reproduce the first step's sink.
  StepCheck check() {
    StepCheck c;
    if (!first_sink_) {
      first_sink_ = sink_;
      const auto d = canonical_digests(*set_);
      c.agree.assign(d.begin(), d.end());
    } else if (*first_sink_ != sink_) {
      c.ok = false;
      c.what = "core sweep result changed between steps";
    }
    return c;
  }

  void core_probe() {}
  [[nodiscard]] double probe_quads() const {
    return static_cast<double>(set_->quads.size());
  }
  [[nodiscard]] const std::array<std::int64_t, kCoreOps>& core_op_ns() const {
    return set_->op_ns;
  }
  [[nodiscard]] StepCounts counts() const { return {}; }

 private:
  Ctx& ctx_;
  std::optional<CoreSet<R>> set_;
  std::uint64_t sink_ = 0;
  std::optional<std::uint64_t> first_sink_;
};

/// The round's search queries: uniform over the brick's trees and the
/// canonical grid, drawn from (seed, round).
inline std::vector<PointQuery> make_points(std::uint64_t seed, int round,
                                           std::size_t n) {
  qforest::Xoshiro256 rng(mix64(seed * 1000003 + static_cast<std::uint64_t>(round)));
  const std::uint64_t root = std::uint64_t{1} << qforest::kCanonicalLevel;
  std::vector<PointQuery> pts(n);
  for (PointQuery& p : pts) {
    p.tree = static_cast<tree_id_t>(rng.next_below(4));
    p.x = static_cast<std::int64_t>(rng.next_below(root));
    p.y = static_cast<std::int64_t>(rng.next_below(root));
    p.z = static_cast<std::int64_t>(rng.next_below(root));
  }
  return pts;
}

}  // namespace qfb
