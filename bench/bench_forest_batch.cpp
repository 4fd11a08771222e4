/// \file bench_forest_batch.cpp
/// \brief forest_batched vs forest_scalar: the payoff of routing the
/// forest's hot loops (refine waves, coarsen family sweeps, balance)
/// through the BatchOps<R> dispatch seam. The refine and coarsen phases of
/// both runs execute the *same* staged code path and only the kernel
/// bodies differ (batch::set_enabled toggles the SIMD gate), so their
/// delta isolates the 256-bit kernels, the ablation the paper asks of
/// high-level consumers of vectorized primitives. The balance phase's
/// scalar side is the per-quadrant oracle of tests/forest_oracle.hpp, so
/// its delta is the whole neighbor-key sweep, not just its kernels.
///
/// Results land on stdout as a table and in BENCH_forest.json.

#include <cstdio>
#include <cstdlib>

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
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

struct PhaseTimes {
  double refine_s = 0;
  double coarsen_s = 0;
  double balance_s = 0;
  gidx_t leaves = 0;            ///< after refine + balance
  gidx_t leaves_coarsened = 0;  ///< after the final coarsen pass
};

/// One timed workflow; \p scalar runs refine and coarsen on the generic
/// kernel loops and balance through the oracle.
template <class R>
PhaseTimes run_workflow(int base_level, int max_depth, int sweeps,
                        bool scalar) {
  batch::set_enabled(!scalar);
  PhaseTimes best;
  for (int s = 0; s < sweeps; ++s) {
    auto f = Forest<R>::new_uniform(Connectivity::unit(3), base_level);
    WallTimer t;
    f.refine(true, [&](tree_id_t, const typename R::quad_t& q) {
      return R::level(q) < max_depth && near_sphere<R>(q);
    });
    const double refine_s = t.elapsed_s();

    t.reset();
    if (scalar) {
      oracle::balance(f, BalanceKind::kFull);
    } else {
      f.balance(BalanceKind::kFull);
    }
    const double balance_s = t.elapsed_s();
    const gidx_t leaves = f.num_quadrants();

    t.reset();
    f.coarsen(true, [&](tree_id_t, const typename R::quad_t* fam) {
      return R::level(fam[0]) > base_level && !near_sphere<R>(fam[0]);
    });
    const double coarsen_s = t.elapsed_s();

    if (s == 0 || refine_s < best.refine_s) {
      best.refine_s = refine_s;
    }
    if (s == 0 || balance_s < best.balance_s) {
      best.balance_s = balance_s;
    }
    if (s == 0 || coarsen_s < best.coarsen_s) {
      best.coarsen_s = coarsen_s;
    }
    best.leaves = leaves;
    best.leaves_coarsened = f.num_quadrants();
  }
  return best;
}

double pct(double scalar_s, double batched_s) {
  return batched_s > 0 ? (scalar_s / batched_s - 1.0) * 100.0 : 0.0;
}

template <class R>
void bench_rep(Table& table, BenchJson& json, int base_level, int max_depth,
               int sweeps) {
  const PhaseTimes scalar =
      run_workflow<R>(base_level, max_depth, sweeps, true);
  const PhaseTimes batched =
      run_workflow<R>(base_level, max_depth, sweeps, false);

  // CI runs this binary as the dispatch smoke test: the two paths must
  // produce the same mesh, not just claim to — both after refine+balance
  // and after coarsen (the consumer of the batched family detection).
  if (scalar.leaves != batched.leaves ||
      scalar.leaves_coarsened != batched.leaves_coarsened) {
    std::fprintf(stderr,
                 "FAIL: %s mesh diverges between dispatch paths "
                 "(balanced %lld vs %lld leaves, coarsened %lld vs %lld)\n",
                 R::name, static_cast<long long>(scalar.leaves),
                 static_cast<long long>(batched.leaves),
                 static_cast<long long>(scalar.leaves_coarsened),
                 static_cast<long long>(batched.leaves_coarsened));
    std::exit(1);
  }

  table.add_row({R::name, Table::fmt(scalar.refine_s, 4),
                 Table::fmt(batched.refine_s, 4),
                 Table::fmt(pct(scalar.refine_s, batched.refine_s), 1),
                 Table::fmt(scalar.balance_s, 4),
                 Table::fmt(batched.balance_s, 4),
                 Table::fmt(pct(scalar.balance_s, batched.balance_s), 1),
                 Table::fmt(scalar.coarsen_s, 4),
                 Table::fmt(batched.coarsen_s, 4),
                 Table::fmt(static_cast<long long>(batched.leaves))});

  const char* phases[] = {"refine", "balance", "coarsen"};
  const double scalar_s[] = {scalar.refine_s, scalar.balance_s,
                             scalar.coarsen_s};
  const double batched_s[] = {batched.refine_s, batched.balance_s,
                              batched.coarsen_s};
  const gidx_t leaves_after[] = {batched.leaves, batched.leaves,
                                 batched.leaves_coarsened};
  for (int p = 0; p < 3; ++p) {
    json.begin_record();
    json.field("bench", "forest_batch");
    json.field("rep", R::name);
    json.field("phase", phases[p]);
    json.field("scalar_seconds", scalar_s[p]);
    json.field("batched_seconds", batched_s[p]);
    json.field("boost_percent", pct(scalar_s[p], batched_s[p]));
    json.field("leaves", static_cast<long long>(leaves_after[p]));
    json.field("simd_active", BatchOps<R>::simd_active());
  }
}

}  // namespace
}  // namespace qforest::bench

int main() {
  using namespace qforest;
  using namespace qforest::bench;

  int base_level = 3, max_depth = 7, sweeps = 3;
  if (const char* env = std::getenv("QFOREST_FB_DEPTH")) {
    max_depth = std::atoi(env);
  }
  if (const char* env = std::getenv("QFOREST_FB_SWEEPS")) {
    sweeps = std::atoi(env);
  }

  std::printf("== forest_batched vs forest_scalar: adaptation workflow "
              "(uniform L%d -> refine sphere band to L%d -> balance -> "
              "coarsen), best of %d ==\n",
              base_level, max_depth, sweeps);
  std::printf("cpu features: %s; avx batch kernels %s\n",
              simd::feature_string().c_str(),
              BatchOps<AvxRep<3>>::has_simd_kernels &&
                      simd::avx2_usable()
                  ? "active for avx rep"
                  : "unavailable (scalar dispatch everywhere)");

  Table table({"representation", "refine scalar [s]", "refine batch [s]",
               "boost %", "balance scalar [s]", "balance batch [s]",
               "boost %", "coarsen scalar [s]", "coarsen batch [s]",
               "leaves"});
  BenchJson json;
  bench_rep<StandardRep<3>>(table, json, base_level, max_depth, sweeps);
  bench_rep<MortonRep<3>>(table, json, base_level, max_depth, sweeps);
  bench_rep<AvxRep<3>>(table, json, base_level, max_depth, sweeps);
  bench_rep<WideMortonRep<3>>(table, json, base_level, max_depth, sweeps);
  table.print();
  std::printf("\n(scalar and batched dispatch must agree on the mesh; the "
              "non-avx representations measure staging overhead alone.)\n");

  // Metrics snapshot: one untimed workflow pass with the obs registry
  // enabled, embedded in the JSON artifact so CI archives the adaptation
  // counters (waves, splice sizes, coarsen accept/reject) alongside the
  // timings. The timed phases above ran with metrics off, so the gated
  // regression records are unaffected.
  obs::reset_metrics();
  obs::set_metrics(true);
  run_workflow<MortonRep<3>>(base_level, max_depth, 1, false);
  obs::set_metrics(false);
  json.begin_record();
  json.field("bench", "forest_batch");
  json.field("phase", "metrics_snapshot");
  json.field("rep", MortonRep<3>::name);
  json.field_raw("metrics", obs::metrics_json());
  std::printf("\n== obs metrics (one enabled workflow pass, morton rep) "
              "==\n%s", obs::metrics_summary().c_str());

  json.write("BENCH_forest.json");
  return 0;
}
