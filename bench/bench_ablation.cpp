/// \file bench_ablation.cpp
/// \brief The forest-layer ablations: each variant times the library
/// against a reference implementation of the same workflow and checks
/// that both give the same results.
///
/// Every run is one workflow on the shared sphere-band mesh
/// (workload.hpp): uniform L3 -> refine the band to depth D -> 2:1
/// balance -> [mark-only balance] -> [partition + read paths] ->
/// [coarsen]. A variant runs it once per *side*; the sides differ only in
/// what they switch. The read-path variant (ghost) builds its balanced mesh
/// once per representation and times only the reads on it.
///
///   bench         mesh                 sides (reference first)
///   forest_batch  unit tree            kernels off + oracle balance |
///                                      kernels on + library balance
///   balance_mark  2x2x1 brick          oracle | library balance
///   ghost         brick, 8 ranks       oracle | library read paths
///   intra_tree    unit tree; brick at  per-tree | chunked | serial
///                 D-1 (morton only)    scheduler
///
/// "Oracle" is the per-quadrant reference of tests/forest_oracle.hpp.
/// Every side must reproduce the reference side's mesh leaf for leaf
/// (after balance and at the end) and its read-path results (per-rank
/// ghost sets, face-emission fingerprint, point results); the binary
/// exits nonzero otherwise. Two speedup floors apply where the mesh and
/// host can show them: library ghost_layer >= 1.5x the oracle (SIMD
/// active, >= 1M leaves) and single-tree chunked refine >= 1.5x the
/// per-tree scheduler (>= 2 hardware threads and pool workers, >= 250k
/// leaves).
///
/// Knobs: QFOREST_BENCH_DEPTH (refine depth D, default 8) and
/// QFOREST_BENCH_SWEEPS (best-of repetitions, default 3). Results land on
/// stdout and in BENCH_ablation.json, one record per (bench, rep, phase)
/// and mesh shape, with every side's seconds, every other side's speedup
/// over the reference and the leaf count after the phase.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_json.hpp"
#include "core/batch_ops.hpp"
#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "obs/metrics.hpp"
#include "simd/feature_detect.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

constexpr int kBaseLevel = 3;

enum Phase {
  kRefine,
  kBalance,
  kMarkOnly,  ///< balance() of the balanced mesh: one no-op mark sweep
  kGhost,     ///< ghost_layer(r) for every rank
  kIterateFaces,
  kSearchPoints,
  kCoarsen,
  kNumPhases
};
constexpr const char* kPhaseName[kNumPhases] = {
    "refine",        "balance",       "mark_only", "ghost",
    "iterate_faces", "search_points", "coarsen"};

enum class Scheduler { kChunked, kPerTree, kSerial };

/// One configuration of the workflow.
struct Side {
  const char* name;
  bool kernels = true;          ///< batch::set_enabled
  bool oracle_balance = false;  ///< balance (and mark-only) via the oracle
  bool oracle_reads = false;    ///< ghost / faces / points via the oracle
  Scheduler scheduler = Scheduler::kChunked;
};

/// A speedup the second side must reach over the first on one phase,
/// checked only where the mesh and host can show it.
struct Floor {
  Phase phase;
  double min_speedup;
  gidx_t min_leaves;
  bool needs_simd = false;     ///< BatchOps<R>::simd_active()
  bool needs_workers = false;  ///< >= 2 hardware threads and pool workers
};

struct Variant {
  const char* bench;       ///< record key
  bool brick = false;      ///< 2x2x1 brick, else one unit tree
  int depth_offset = 0;    ///< added to D
  int ranks = 1;
  bool morton_only = false;
  std::vector<Phase> phases;  ///< timed and reported, in workflow order
  std::vector<Side> sides;    ///< [0] is the reference; boost = [0] / [1]
  std::optional<Floor> floor = std::nullopt;

  [[nodiscard]] bool has(Phase p) const {
    return std::find(phases.begin(), phases.end(), p) != phases.end();
  }
  [[nodiscard]] const char* shape() const { return brick ? "brick" : "unit"; }
};

const std::vector<Variant>& variants() {
  const Side library{.name = "batched"};
  const std::vector<Side> schedulers = {
      {.name = "per_tree", .scheduler = Scheduler::kPerTree},
      {.name = "chunked"},
      {.name = "serial", .scheduler = Scheduler::kSerial}};
  static const std::vector<Variant> table = {
      {.bench = "forest_batch",
       .phases = {kRefine, kBalance, kCoarsen},
       .sides = {{.name = "scalar", .kernels = false, .oracle_balance = true},
                 library}},
      {.bench = "balance_mark",
       .brick = true,
       .phases = {kBalance, kMarkOnly},
       .sides = {{.name = "scalar", .oracle_balance = true}, library}},
      {.bench = "ghost",
       .brick = true,
       .ranks = 8,
       .phases = {kGhost, kIterateFaces, kSearchPoints},
       .sides = {{.name = "scalar", .oracle_reads = true}, library},
       .floor = Floor{.phase = kGhost,
                      .min_speedup = 1.5,
                      .min_leaves = 1000000,
                      .needs_simd = true}},
      {.bench = "intra_tree",
       .morton_only = true,
       .phases = {kRefine, kBalance, kCoarsen},
       .sides = schedulers,
       .floor = Floor{.phase = kRefine,
                      .min_speedup = 1.5,
                      .min_leaves = 250000,
                      .needs_workers = true}},
      // The brick has 4 trees; one level shallower keeps its leaf count
      // near the single tree's, so the rows isolate the scheduling.
      {.bench = "intra_tree",
       .brick = true,
       .depth_offset = -1,
       .morton_only = true,
       .phases = {kRefine, kBalance, kCoarsen},
       .sides = schedulers},
  };
  return table;
}

struct Config {
  int depth = 8;
  int sweeps = 3;
  std::size_t grain = 0;  ///< the chunked scheduler's grain
  unsigned hw_threads = 0;
  unsigned workers = 0;
};

template <class R>
using Mesh = std::vector<std::vector<typename R::quad_t>>;

template <class R>
Mesh<R> snapshot(const Forest<R>& f) {
  Mesh<R> m(static_cast<std::size_t>(f.num_trees()));
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    m[static_cast<std::size_t>(t)] = f.tree_quadrants(t);
  }
  return m;
}

template <class R>
bool same_mesh(const Mesh<R>& a, const Mesh<R>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& ta, const auto& tb) {
                      return std::equal(ta.begin(), ta.end(), tb.begin(),
                                        tb.end(), R::equal);
                    });
}

/// What a side produced (from its last sweep) and its best phase times.
template <class R>
struct Outcome {
  std::array<double, kNumPhases> seconds{};
  gidx_t leaves = 0;            ///< after balance
  gidx_t leaves_coarsened = 0;  ///< after coarsen
  Mesh<R> balanced;
  Mesh<R> final_mesh;
  std::vector<std::vector<gidx_t>> ghost;  ///< per rank, global indices
  std::uint64_t face_fingerprint = 0;      ///< order-independent sum
  gidx_t faces = 0;
  std::vector<gidx_t> points;
};

std::vector<PointQuery> make_points(int num_trees, std::size_t n) {
  const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
  Xoshiro256 rng(20240809);
  std::vector<PointQuery> pts(n);
  for (PointQuery& p : pts) {
    p.tree = static_cast<tree_id_t>(
        rng.next_below(static_cast<std::uint64_t>(num_trees)));
    p.x = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(root)));
    p.y = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(root)));
    p.z = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(root)));
  }
  return pts;
}

inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// The per-tree scheduler is the chunked one at a grain no tree reaches
/// (every tree's passes then run as one inline chunk).
void select(Scheduler s, std::size_t grain) {
  set_tree_parallelism(s != Scheduler::kSerial);
  set_chunk_grain(s == Scheduler::kPerTree ? SIZE_MAX : grain);
}

/// Uniform L3 on the variant's connectivity, refined to the sphere band.
template <class R>
Forest<R> refined(const Variant& v, int depth, const auto& timed) {
  auto f = Forest<R>::new_uniform(v.brick ? Connectivity::brick3d(2, 2, 1)
                                          : Connectivity::unit(3),
                                  kBaseLevel, v.ranks);
  timed(kRefine, [&] {
    f.refine(true, [&](tree_id_t, const typename R::quad_t& q) {
      return R::level(q) < depth && near_sphere<R>(q);
    });
  });
  return f;
}

/// The read-path variants' mesh: refined, balanced by the library and
/// partitioned over the variant's ranks.
template <class R>
Forest<R> read_mesh(const Variant& v, const Config& cfg) {
  batch::set_enabled(true);
  select(Scheduler::kChunked, cfg.grain);
  auto f = refined<R>(v, cfg.depth + v.depth_offset,
                      [](Phase, auto&& step) { step(); });
  f.balance(BalanceKind::kFull);
  f.partition();
  return f;
}

/// Time ghost_layer for every rank, iterate_faces and search_points on
/// \p f under \p side; keep their results in \p out when \p last. The
/// ghost layers are read from a copy made before the timer starts: the
/// forest keeps the rank adjacency after the first read, and a copy starts
/// without it, so every sweep times the build.
template <class R>
void run_reads(const Forest<R>& f, const Side& side, bool last,
               const auto& timed, Outcome<R>& out) {
  const auto pts =
      make_points(f.num_trees(), static_cast<std::size_t>(f.num_quadrants()));
  std::vector<std::vector<gidx_t>> ghost;
  const Forest<R> cold = f;
  timed(kGhost, [&] {
    for (int r = 0; r < cold.num_ranks(); ++r) {
      const auto layer = side.oracle_reads ? oracle::ghost_layer(cold, r)
                                           : cold.ghost_layer(r);
      std::vector<gidx_t> g;
      g.reserve(layer.entries.size());
      for (const auto& e : layer.entries) {
        g.push_back(e.global_index);
      }
      ghost.push_back(std::move(g));
    }
  });
  std::atomic<std::uint64_t> fingerprint{0};
  std::atomic<gidx_t> faces{0};
  const auto count_face = [&](const FaceInfo<R>& info) {
    // Order-independent: the library runs the callback concurrently, and
    // addition commutes.
    const std::uint64_t a =
        info.is_boundary ? ~std::uint64_t{0}
                         : static_cast<std::uint64_t>(
                               f.global_index(info.tree[1], info.leaf_index[1]));
    const std::uint64_t h =
        mix(static_cast<std::uint64_t>(
                f.global_index(info.tree[0], info.leaf_index[0])) *
                6 +
            static_cast<std::uint64_t>(info.face[0])) ^
        mix(a + (info.is_hanging ? 0x9e3779b97f4a7c15ULL : 0));
    fingerprint.fetch_add(h, std::memory_order_relaxed);
    faces.fetch_add(1, std::memory_order_relaxed);
  };
  timed(kIterateFaces, [&] {
    if (side.oracle_reads) {
      oracle::iterate_faces(f, count_face);
    } else {
      f.iterate_faces(count_face);
    }
  });
  std::vector<gidx_t> points;
  timed(kSearchPoints, [&] {
    points = side.oracle_reads ? oracle::search_points(f, pts)
                               : f.search_points(pts);
  });
  if (last) {
    out.ghost = std::move(ghost);
    out.face_fingerprint = fingerprint.load();
    out.faces = faces.load();
    out.points = std::move(points);
  }
}

/// Run the workflow \p cfg.sweeps times under \p side, keeping each
/// phase's best time. With \p shared (the read-path variants) the sweeps
/// time only the reads on that mesh.
template <class R>
Outcome<R> run_side(const Variant& v, const Side& side, const Config& cfg,
                    const Forest<R>* shared = nullptr) {
  batch::set_enabled(side.kernels);
  select(side.scheduler, cfg.grain);
  const auto balance = [&side](Forest<R>& f) {
    if (side.oracle_balance) {
      oracle::balance(f, BalanceKind::kFull);
    } else {
      f.balance(BalanceKind::kFull);
    }
  };

  Outcome<R> out;
  if (shared != nullptr) {
    out.leaves = out.leaves_coarsened = shared->num_quadrants();
    out.balanced = out.final_mesh = snapshot(*shared);
  }
  for (int sweep = 0; sweep < cfg.sweeps; ++sweep) {
    const bool last = sweep == cfg.sweeps - 1;
    const auto timed = [&](Phase p, auto&& step) {
      WallTimer t;
      step();
      const double s = t.elapsed_s();
      out.seconds[p] = sweep == 0 ? s : std::min(out.seconds[p], s);
    };
    if (shared != nullptr) {
      run_reads(*shared, side, last, timed, out);
      continue;
    }

    auto f = refined<R>(v, cfg.depth + v.depth_offset, timed);
    timed(kBalance, [&] { balance(f); });
    if (v.has(kMarkOnly)) {
      timed(kMarkOnly, [&] { balance(f); });
    }
    out.leaves = f.num_quadrants();
    if (last) {
      out.balanced = snapshot(f);
    }
    if (v.has(kCoarsen)) {
      timed(kCoarsen, [&] {
        f.coarsen(true, [&](tree_id_t, const typename R::quad_t* fam) {
          return R::level(fam[0]) > kBaseLevel && !near_sphere<R>(fam[0]);
        });
      });
    }
    out.leaves_coarsened = f.num_quadrants();
    if (last) {
      out.final_mesh = snapshot(f);
    }
  }
  return out;
}

/// The first way \p got differs from the reference \p ref, or null.
template <class R>
const char* mismatch(const Outcome<R>& ref, const Outcome<R>& got) {
  if (!same_mesh<R>(ref.balanced, got.balanced)) {
    return "balanced mesh";
  }
  if (ref.ghost != got.ghost) {
    return "ghost sets";
  }
  if (ref.faces != got.faces || ref.face_fingerprint != got.face_fingerprint) {
    return "face emissions";
  }
  if (ref.points != got.points) {
    return "search_points results";
  }
  if (!same_mesh<R>(ref.final_mesh, got.final_mesh)) {
    return "final mesh";
  }
  return nullptr;
}

double speedup(double ref_s, double new_s) {
  return new_s > 0 ? ref_s / new_s : 0.0;
}

double pct(double ref_s, double new_s) {
  return new_s > 0 ? (speedup(ref_s, new_s) - 1.0) * 100.0 : 0.0;
}

/// Run every side of \p v on representation \p R, check the results and
/// the floor, and add the rows and records. Returns false on a failure.
template <class R>
bool run_variant(const Variant& v, const Config& cfg, Table& table,
                 BenchJson& json) {
  if (v.morton_only && !std::is_same_v<R, MortonRep<3>>) {
    return true;
  }
  std::optional<Forest<R>> shared;
  if (v.has(kGhost)) {
    shared = read_mesh<R>(v, cfg);
  }
  std::vector<Outcome<R>> runs;
  for (const Side& side : v.sides) {
    runs.push_back(run_side<R>(v, side, cfg, shared ? &*shared : nullptr));
  }
  bool ok = true;
  for (std::size_t s = 1; s < runs.size(); ++s) {
    if (const char* what = mismatch(runs[0], runs[s])) {
      std::fprintf(stderr, "FAIL: %s %s (%s): %s of %s differ from %s\n",
                   v.bench, R::name, v.shape(), what, v.sides[s].name,
                   v.sides[0].name);
      ok = false;
    }
  }

  const gidx_t leaves = runs[0].leaves;
  for (const Phase p : v.phases) {
    std::vector<std::string> row = {R::name, kPhaseName[p]};
    json.begin_record();
    json.field("bench", v.bench);
    json.field("rep", R::name);
    json.field("phase", kPhaseName[p]);
    json.field("shape", v.shape());
    for (std::size_t s = 0; s < runs.size(); ++s) {
      const std::string side = v.sides[s].name;
      row.push_back(Table::fmt(runs[s].seconds[p], 4));
      json.field((side + "_seconds").c_str(), runs[s].seconds[p]);
      if (s > 0) {
        json.field((side + "_speedup").c_str(),
                   speedup(runs[0].seconds[p], runs[s].seconds[p]));
      }
    }
    const double boost = pct(runs[0].seconds[p], runs[1].seconds[p]);
    const auto after = static_cast<long long>(
        p == kCoarsen ? runs[0].leaves_coarsened : leaves);
    row.push_back(Table::fmt(boost, 1));
    row.push_back(Table::fmt(after));
    table.add_row(std::move(row));
    json.field("boost_percent", boost);
    json.field("leaves", after);
    json.field("workers", static_cast<long long>(cfg.workers));
    json.field("simd_active", BatchOps<R>::simd_active());
  }

  if (!v.floor) {
    return ok;
  }
  const Floor& fl = *v.floor;
  const double got =
      speedup(runs[0].seconds[fl.phase], runs[1].seconds[fl.phase]);
  const bool enforced =
      leaves >= fl.min_leaves &&
      (!fl.needs_simd || BatchOps<R>::simd_active()) &&
      (!fl.needs_workers || (cfg.hw_threads >= 2 && cfg.workers >= 2));
  if (!enforced) {
    std::printf("note: %s %s %s floor (%.1fx) not enforced: %.2fx at %lld "
                "leaves\n",
                v.bench, R::name, kPhaseName[fl.phase], fl.min_speedup,
                got, static_cast<long long>(leaves));
  } else if (got < fl.min_speedup) {
    std::fprintf(stderr,
                 "FAIL: %s %s (%s) %s: %s is %.2fx %s, below the %.1fx "
                 "floor at %lld leaves\n",
                 v.bench, R::name, v.shape(), kPhaseName[fl.phase],
                 v.sides[1].name, got, v.sides[0].name, fl.min_speedup,
                 static_cast<long long>(leaves));
    ok = false;
  } else {
    std::printf("floor: %s %s %s %.2fx >= %.1fx\n", v.bench, R::name,
                kPhaseName[fl.phase], got, fl.min_speedup);
  }
  return ok;
}

int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atoi(env) : fallback;
}

}  // namespace
}  // namespace qforest::bench

int main() {
  using namespace qforest;
  using namespace qforest::bench;

  Config cfg;
  cfg.depth = env_int("QFOREST_BENCH_DEPTH", cfg.depth);
  cfg.sweeps = std::max(1, env_int("QFOREST_BENCH_SWEEPS", cfg.sweeps));
  cfg.grain = chunk_grain();
  cfg.hw_threads = std::thread::hardware_concurrency();
  cfg.workers = static_cast<unsigned>(detail::forest_pool().size());

  std::printf("== forest ablations: uniform L%d -> sphere band to L%d -> "
              "balance -> coarsen, best of %d ==\n",
              kBaseLevel, cfg.depth, cfg.sweeps);
  std::printf("cpu features: %s; avx batch kernels %s; hardware threads "
              "%u; forest pool workers %u; chunk grain %zu\n",
              simd::feature_string().c_str(),
              BatchOps<AvxRep<3>>::has_simd_kernels && simd::avx2_usable()
                  ? "active for avx rep"
                  : "unavailable (scalar kernels everywhere)",
              cfg.hw_threads, cfg.workers, cfg.grain);

  BenchJson json;
  bool ok = true;
  for (const Variant& v : variants()) {
    std::printf("\n== %s on the %s mesh (%d rank%s, depth %d) ==\n", v.bench,
                v.shape(), v.ranks, v.ranks == 1 ? "" : "s",
                cfg.depth + v.depth_offset);
    std::vector<std::string> headers = {"representation", "phase"};
    for (const Side& side : v.sides) {
      headers.push_back(std::string(side.name) + " [s]");
    }
    headers.push_back(std::string("boost % vs ") + v.sides[0].name);
    headers.push_back("leaves");
    Table table(std::move(headers));
    ok &= run_variant<StandardRep<3>>(v, cfg, table, json);
    ok &= run_variant<MortonRep<3>>(v, cfg, table, json);
    ok &= run_variant<AvxRep<3>>(v, cfg, table, json);
    ok &= run_variant<WideMortonRep<3>>(v, cfg, table, json);
    table.print();
  }

  // Metrics snapshot: one untimed library forest_batch workflow with the
  // obs registry enabled, so the JSON artifact carries the adaptation
  // counters. The timed runs above had metrics off.
  obs::reset_metrics();
  obs::set_metrics(true);
  Config once = cfg;
  once.sweeps = 1;
  run_side<MortonRep<3>>(variants()[0], Side{.name = "batched"}, once);
  obs::set_metrics(false);
  json.begin_record();
  json.field("bench", "forest_batch");
  json.field("phase", "metrics_snapshot");
  json.field("rep", MortonRep<3>::name);
  json.field_raw("metrics", obs::metrics_json());
  std::printf("\n== obs metrics (one enabled forest_batch workflow, morton "
              "rep) ==\n%s",
              obs::metrics_summary().c_str());

  json.write("BENCH_ablation.json");
  return ok ? 0 : 1;
}
