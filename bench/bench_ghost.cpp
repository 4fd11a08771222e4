/// \file bench_ghost.cpp
/// \brief Read-path ablation: the library's consumer paths (ghost_layer,
/// iterate_faces, search_points — neighbor-key sweep and sorted merges,
/// batch kernels on) against the per-quadrant oracle of
/// tests/forest_oracle.hpp — the "scalar" columns.
///
/// Workload: the shared sphere-band mesh (workload.hpp) on a 2x2x1 brick,
/// refined and 2:1-balanced, partitioned across 8 simulated ranks —
/// >= 1M leaves at the default depth. Three timings per representation:
///   - ghost:         ghost_layer(r) for every rank (the per-timestep
///                    exchange set build);
///   - iterate_faces: one full face sweep with a counting callback;
///   - search_points: one batched point location of ~num_leaves random
///                    canonical points (oracle: per-point search).
///
/// The library and the oracle must agree exactly — ghost sets per rank,
/// face-emission fingerprint, and per-point results; the binary exits
/// nonzero otherwise (CI runs it as a smoke test). With SIMD active and
/// the default mesh size, the library's ghost path must beat the oracle
/// by >= 1.5x (disable via QFOREST_GH_ENFORCE=0 for smoke runs).
/// Results land on stdout and in BENCH_ghost.json.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.hpp"
#include "core/batch_ops.hpp"
#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "simd/feature_detect.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

constexpr int kRanks = 8;
constexpr gidx_t kEnforceMinLeaves = 1000000;
constexpr double kEnforceMinBoost = 1.5;

struct ReadTimes {
  double ghost_s = 0;
  double iterate_s = 0;
  double search_s = 0;
};

struct ReadResults {
  std::vector<std::vector<gidx_t>> ghost;  ///< per rank, global indices
  std::uint64_t face_fingerprint = 0;      ///< order-independent sum
  gidx_t faces = 0;
  std::vector<gidx_t> points;
};

template <class R>
Forest<R> make_mesh(int base_level, int max_depth) {
  auto f = Forest<R>::new_uniform(Connectivity::brick3d(2, 2, 1), base_level,
                                  kRanks);
  f.refine(true, [&](tree_id_t, const typename R::quad_t& q) {
    return R::level(q) < max_depth && near_sphere<R>(q);
  });
  f.balance(BalanceKind::kFull);
  f.partition();
  return f;
}

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

/// Time the library's read paths, or the oracle's when \p use_oracle.
template <class R>
ReadTimes run_path(const Forest<R>& f, const std::vector<PointQuery>& pts,
                   int sweeps, bool use_oracle, ReadResults* out) {
  ReadTimes best;
  for (int s = 0; s < sweeps; ++s) {
    ReadResults res;
    WallTimer t;
    res.ghost.reserve(static_cast<std::size_t>(f.num_ranks()));
    for (int r = 0; r < f.num_ranks(); ++r) {
      const auto layer =
          use_oracle ? oracle::ghost_layer(f, r) : f.ghost_layer(r);
      std::vector<gidx_t> g;
      g.reserve(layer.entries.size());
      for (const auto& e : layer.entries) {
        g.push_back(e.global_index);
      }
      res.ghost.push_back(std::move(g));
    }
    const double ghost_s = t.elapsed_s();

    t.reset();
    std::atomic<std::uint64_t> fingerprint{0};
    std::atomic<gidx_t> faces{0};
    const auto count_face = [&](const FaceInfo<R>& info) {
      // Order-independent: the library runs the callback concurrently,
      // and addition commutes.
      const std::uint64_t a =
          info.is_boundary
              ? ~std::uint64_t{0}
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
    if (use_oracle) {
      oracle::iterate_faces(f, count_face);
    } else {
      f.iterate_faces(count_face);
    }
    const double iterate_s = t.elapsed_s();
    res.face_fingerprint = fingerprint.load();
    res.faces = faces.load();

    t.reset();
    res.points =
        use_oracle ? oracle::search_points(f, pts) : f.search_points(pts);
    const double search_s = t.elapsed_s();

    if (s == 0 || ghost_s < best.ghost_s) {
      best.ghost_s = ghost_s;
    }
    if (s == 0 || iterate_s < best.iterate_s) {
      best.iterate_s = iterate_s;
    }
    if (s == 0 || search_s < best.search_s) {
      best.search_s = search_s;
    }
    if (out != nullptr && s == sweeps - 1) {
      *out = std::move(res);
    }
  }
  return best;
}

double pct(double scalar_s, double batched_s) {
  return batched_s > 0 ? (scalar_s / batched_s - 1.0) * 100.0 : 0.0;
}

template <class R>
void bench_rep(Table& table, BenchJson& json, int base_level, int max_depth,
               int sweeps, bool enforce) {
  const Forest<R> f = make_mesh<R>(base_level, max_depth);
  const auto pts = make_points(f.num_trees(),
                               static_cast<std::size_t>(f.num_quadrants()));

  ReadResults scalar_res;
  const ReadTimes scalar = run_path(f, pts, sweeps, true, &scalar_res);
  ReadResults batched_res;
  const ReadTimes batched = run_path(f, pts, sweeps, false, &batched_res);

  if (scalar_res.ghost != batched_res.ghost) {
    std::fprintf(stderr,
                 "FAIL: %s ghost sets diverge between the oracle and the "
                 "library\n",
                 R::name);
    std::exit(1);
  }
  if (scalar_res.faces != batched_res.faces ||
      scalar_res.face_fingerprint != batched_res.face_fingerprint) {
    std::fprintf(stderr,
                 "FAIL: %s face emissions diverge (%lld vs %lld faces)\n",
                 R::name, static_cast<long long>(scalar_res.faces),
                 static_cast<long long>(batched_res.faces));
    std::exit(1);
  }
  if (scalar_res.points != batched_res.points) {
    std::fprintf(stderr,
                 "FAIL: %s search_points diverges between the oracle and "
                 "the library\n",
                 R::name);
    std::exit(1);
  }

  const gidx_t leaves = f.num_quadrants();
  table.add_row({R::name, Table::fmt(scalar.ghost_s, 4),
                 Table::fmt(batched.ghost_s, 4),
                 Table::fmt(pct(scalar.ghost_s, batched.ghost_s), 1),
                 Table::fmt(scalar.iterate_s, 4),
                 Table::fmt(batched.iterate_s, 4),
                 Table::fmt(pct(scalar.iterate_s, batched.iterate_s), 1),
                 Table::fmt(scalar.search_s, 4),
                 Table::fmt(batched.search_s, 4),
                 Table::fmt(pct(scalar.search_s, batched.search_s), 1),
                 Table::fmt(static_cast<long long>(leaves))});

  const char* phases[] = {"ghost", "iterate_faces", "search_points"};
  const double scalar_s[] = {scalar.ghost_s, scalar.iterate_s,
                             scalar.search_s};
  const double batched_s[] = {batched.ghost_s, batched.iterate_s,
                              batched.search_s};
  for (int p = 0; p < 3; ++p) {
    json.begin_record();
    json.field("bench", "ghost");
    json.field("rep", R::name);
    json.field("phase", phases[p]);
    json.field("scalar_seconds", scalar_s[p]);
    json.field("batched_seconds", batched_s[p]);
    json.field("boost_percent", pct(scalar_s[p], batched_s[p]));
    json.field("leaves", static_cast<long long>(leaves));
    json.field("simd_active", BatchOps<R>::simd_active());
  }

  // Acceptance gate: with SIMD kernels active and a production-size mesh
  // the library's ghost build must beat the oracle by >= 1.5x.
  if (enforce && BatchOps<R>::simd_active() && leaves >= kEnforceMinLeaves &&
      scalar.ghost_s < kEnforceMinBoost * batched.ghost_s) {
    std::fprintf(stderr,
                 "FAIL: %s library ghost_layer %.4fs vs oracle %.4fs — "
                 "below the %.1fx floor at %lld leaves\n",
                 R::name, batched.ghost_s, scalar.ghost_s, kEnforceMinBoost,
                 static_cast<long long>(leaves));
    std::exit(1);
  }
}

}  // namespace
}  // namespace qforest::bench

int main() {
  using namespace qforest;
  using namespace qforest::bench;

  int base_level = 3, max_depth = 8, sweeps = 3;
  bool enforce = true;
  if (const char* env = std::getenv("QFOREST_GH_DEPTH")) {
    max_depth = std::atoi(env);
  }
  if (const char* env = std::getenv("QFOREST_GH_SWEEPS")) {
    sweeps = std::atoi(env);
  }
  if (const char* env = std::getenv("QFOREST_GH_ENFORCE")) {
    enforce = std::atoi(env) != 0;
  }

  std::printf("== read paths: library (bulk neighbor keys + grid/merge "
              "resolution) vs per-quadrant oracle lookups, 2x2x1 brick, "
              "uniform L%d -> balanced sphere band to L%d, %d ranks, best "
              "of %d ==\n",
              base_level, max_depth, kRanks, sweeps);
  std::printf("cpu features: %s; avx batch kernels %s\n",
              simd::feature_string().c_str(),
              BatchOps<AvxRep<3>>::has_simd_kernels && simd::avx2_usable()
                  ? "active for avx rep"
                  : "unavailable (scalar kernels everywhere)");

  Table table({"representation", "ghost scal [s]", "ghost batch [s]",
               "boost %", "iter scal [s]", "iter batch [s]", "boost %",
               "search scal [s]", "search batch [s]", "boost %", "leaves"});
  BenchJson json;
  bench_rep<StandardRep<3>>(table, json, base_level, max_depth, sweeps,
                            enforce);
  bench_rep<MortonRep<3>>(table, json, base_level, max_depth, sweeps,
                          enforce);
  bench_rep<AvxRep<3>>(table, json, base_level, max_depth, sweeps, enforce);
  bench_rep<WideMortonRep<3>>(table, json, base_level, max_depth, sweeps,
                              enforce);
  table.print();
  std::printf("\n(per-rank ghost sets, the face-emission fingerprint and "
              "every point result must agree between library and oracle.)\n");

  json.write("BENCH_ghost.json");
  return 0;
}
