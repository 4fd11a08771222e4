/// \file bench_balance_mark.cpp
/// \brief Balance mark-phase ablation: the library's balance (one
/// neighbor-key sweep — bulk keys through BatchOps<R>::neighbor_at_offset_n,
/// grid lookups and one sorted-merge sweep per target tree, tree- and
/// chunk-parallel, batch kernels on) against the per-quadrant oracle of
/// tests/forest_oracle.hpp (neighbor_at_offset + upper_bound per (leaf,
/// offset) pair, serial) — the "scalar" columns.
///
/// Two timings per representation:
///   - balance:   full 2:1 enforcement of an unbalanced sphere-band mesh
///                (mark + apply until fixpoint);
///   - mark-only: balance() of the already-balanced result — one complete
///                mark sweep that finds nothing, no apply, no rebuild —
///                the purest measurement of the mark phase itself.
///
/// The library and the oracle must agree on the final mesh leaf-for-leaf;
/// the binary exits nonzero otherwise (CI runs it as a smoke test). Results
/// land on stdout and in BENCH_balance_mark.json.

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
#include "simd/feature_detect.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

struct MarkTimes {
  double balance_s = 0;    ///< full balance of the unbalanced mesh
  double mark_only_s = 0;  ///< one no-op mark sweep of the balanced mesh
  gidx_t leaves = 0;       ///< after balance
};

template <class R>
Forest<R> make_unbalanced(int base_level, int max_depth) {
  auto f = Forest<R>::new_uniform(Connectivity::brick3d(2, 2, 1), base_level);
  f.refine(true, [&](tree_id_t, const typename R::quad_t& q) {
    return R::level(q) < max_depth && near_sphere<R>(q);
  });
  return f;
}

/// Time the library's balance, or the oracle's when \p use_oracle.
template <class R>
MarkTimes run_path(const Forest<R>& base, int sweeps, bool use_oracle,
                   Forest<R>* mesh_out = nullptr) {
  const auto balance = [use_oracle](Forest<R>& f) {
    if (use_oracle) {
      oracle::balance(f, BalanceKind::kFull);
    } else {
      f.balance(BalanceKind::kFull);
    }
  };
  MarkTimes best;
  for (int s = 0; s < sweeps; ++s) {
    Forest<R> f = base;
    WallTimer t;
    balance(f);
    const double balance_s = t.elapsed_s();

    t.reset();
    balance(f);  // already balanced: pure mark sweep
    const double mark_only_s = t.elapsed_s();

    if (s == 0 || balance_s < best.balance_s) {
      best.balance_s = balance_s;
    }
    if (s == 0 || mark_only_s < best.mark_only_s) {
      best.mark_only_s = mark_only_s;
    }
    best.leaves = f.num_quadrants();
    if (mesh_out != nullptr && s == sweeps - 1) {
      *mesh_out = std::move(f);
    }
  }
  return best;
}

/// Leaf-for-leaf mesh equality between the library and the oracle.
template <class R>
bool same_mesh(const Forest<R>& a, const Forest<R>& b) {
  if (a.num_quadrants() != b.num_quadrants()) {
    return false;
  }
  for (tree_id_t t = 0; t < a.num_trees(); ++t) {
    const auto& ta = a.tree_quadrants(t);
    const auto& tb = b.tree_quadrants(t);
    if (ta.size() != tb.size()) {
      return false;
    }
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (!R::equal(ta[i], tb[i])) {
        return false;
      }
    }
  }
  return true;
}

double pct(double scalar_s, double batched_s) {
  return batched_s > 0 ? (scalar_s / batched_s - 1.0) * 100.0 : 0.0;
}

template <class R>
void bench_rep(Table& table, BenchJson& json, int base_level, int max_depth,
               int sweeps) {
  const Forest<R> base = make_unbalanced<R>(base_level, max_depth);

  Forest<R> scalar_mesh = base;
  const MarkTimes scalar = run_path(base, sweeps, true, &scalar_mesh);
  Forest<R> batched_mesh = base;
  const MarkTimes batched = run_path(base, sweeps, false, &batched_mesh);

  if (!same_mesh(scalar_mesh, batched_mesh)) {
    std::fprintf(stderr,
                 "FAIL: %s balanced mesh diverges between the oracle and "
                 "the library (%lld vs %lld leaves)\n",
                 R::name, static_cast<long long>(scalar.leaves),
                 static_cast<long long>(batched.leaves));
    std::exit(1);
  }

  table.add_row({R::name, Table::fmt(scalar.balance_s, 4),
                 Table::fmt(batched.balance_s, 4),
                 Table::fmt(pct(scalar.balance_s, batched.balance_s), 1),
                 Table::fmt(scalar.mark_only_s, 4),
                 Table::fmt(batched.mark_only_s, 4),
                 Table::fmt(pct(scalar.mark_only_s, batched.mark_only_s), 1),
                 Table::fmt(static_cast<long long>(batched.leaves))});

  const char* phases[] = {"balance", "mark_only"};
  const double scalar_s[] = {scalar.balance_s, scalar.mark_only_s};
  const double batched_s[] = {batched.balance_s, batched.mark_only_s};
  for (int p = 0; p < 2; ++p) {
    json.begin_record();
    json.field("bench", "balance_mark");
    json.field("rep", R::name);
    json.field("phase", phases[p]);
    json.field("scalar_seconds", scalar_s[p]);
    json.field("batched_seconds", batched_s[p]);
    json.field("boost_percent", pct(scalar_s[p], batched_s[p]));
    json.field("leaves", static_cast<long long>(batched.leaves));
    json.field("simd_active", BatchOps<R>::simd_active());
  }
}

}  // namespace
}  // namespace qforest::bench

int main() {
  using namespace qforest;
  using namespace qforest::bench;

  int base_level = 3, max_depth = 7, sweeps = 3;
  if (const char* env = std::getenv("QFOREST_BM_DEPTH")) {
    max_depth = std::atoi(env);
  }
  if (const char* env = std::getenv("QFOREST_BM_SWEEPS")) {
    sweeps = std::atoi(env);
  }

  std::printf("== balance mark phase: library (bulk neighbor keys + sorted "
              "merge) vs per-quadrant oracle lookups, 2x2x1 brick, uniform "
              "L%d -> sphere band to L%d, best of %d ==\n",
              base_level, max_depth, sweeps);
  std::printf("cpu features: %s; avx batch kernels %s\n",
              simd::feature_string().c_str(),
              BatchOps<AvxRep<3>>::has_simd_kernels && simd::avx2_usable()
                  ? "active for avx rep"
                  : "unavailable (scalar kernels everywhere)");

  Table table({"representation", "balance scalar [s]", "balance batch [s]",
               "boost %", "mark scalar [s]", "mark batch [s]", "boost %",
               "leaves"});
  BenchJson json;
  bench_rep<StandardRep<3>>(table, json, base_level, max_depth, sweeps);
  bench_rep<MortonRep<3>>(table, json, base_level, max_depth, sweeps);
  bench_rep<AvxRep<3>>(table, json, base_level, max_depth, sweeps);
  bench_rep<WideMortonRep<3>>(table, json, base_level, max_depth, sweeps);
  table.print();
  std::printf("\n(library and oracle must produce the identical balanced "
              "mesh; mark-only rows time one complete no-op mark sweep.)\n");

  json.write("BENCH_balance_mark.json");
  return 0;
}
