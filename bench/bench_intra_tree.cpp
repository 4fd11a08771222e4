/// \file bench_intra_tree.cpp
/// \brief Intra-tree work-partitioning ablation: the two-level (tree x
/// chunk) scheduler against the per-tree-only scheduler and the fully
/// serial path, on the two forest shapes that matter:
///
///   - single: one unit tree — the common benchmark shape, where the
///     per-tree scheduler degenerates to one worker and the pool idles;
///   - multi:  a 2x2x1 brick, where per-tree parallelism already helps
///     and chunking must at least not hurt.
///
/// All three schedulers must produce the identical mesh (the binary
/// exits nonzero otherwise — CI runs it as a smoke test). On hosts with
/// >= 2 hardware threads the single-tree recursive-refine speedup of the
/// chunked scheduler over the per-tree scheduler is enforced to be
/// >= 1.5x (QFOREST_IT_ENFORCE=0 overrides; on single-core hosts the
/// check is advisory, as time-sliced workers cannot speed anything up).
/// Results land on stdout and in BENCH_intra_tree.json.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_json.hpp"
#include "core/quadrant_morton.hpp"
#include "forest/forest.hpp"
#include "simd/feature_detect.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

using R = MortonRep<3>;

struct SchedTimes {
  double refine_s = 0;
  double balance_s = 0;
  double coarsen_s = 0;
  gidx_t leaves = 0;  ///< after refine + balance
};

enum class Scheduler { kSerial, kPerTree, kChunked };

const char* name_of(Scheduler s) {
  switch (s) {
    case Scheduler::kSerial: return "serial";
    case Scheduler::kPerTree: return "per-tree";
    default: return "chunked";
  }
}

/// The per-tree scheduler is the chunked one at a grain no tree reaches
/// (every tree's passes then run as one inline chunk); the others run at
/// \p grain.
void select(Scheduler s, std::size_t grain) {
  set_tree_parallelism(s != Scheduler::kSerial);
  set_chunk_grain(s == Scheduler::kPerTree ? SIZE_MAX : grain);
}

Connectivity make_conn(bool single) {
  return single ? Connectivity::unit(3) : Connectivity::brick3d(2, 2, 1);
}

SchedTimes run_workflow(bool single, int base_level, int max_depth,
                        int sweeps, Forest<R>* mesh_out) {
  // The brick has 4 trees; running it one level shallower keeps the two
  // shapes at comparable total leaf counts (4 trees x L-1 ~ 1 tree x L),
  // so the rows isolate the scheduling, not the mesh size.
  const int depth = single ? max_depth : max_depth - 1;
  SchedTimes best;
  for (int s = 0; s < sweeps; ++s) {
    auto f = Forest<R>::new_uniform(make_conn(single), base_level);
    WallTimer t;
    f.refine(true, [&](tree_id_t, const R::quad_t& q) {
      return R::level(q) < depth && near_sphere<R>(q);
    });
    const double refine_s = t.elapsed_s();

    t.reset();
    f.balance(BalanceKind::kFull);
    const double balance_s = t.elapsed_s();
    const gidx_t leaves = f.num_quadrants();

    t.reset();
    f.coarsen(true, [&](tree_id_t, const R::quad_t* fam) {
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
    if (mesh_out != nullptr && s == sweeps - 1) {
      *mesh_out = std::move(f);
    }
  }
  return best;
}

bool same_mesh(const Forest<R>& a, const Forest<R>& b) {
  if (a.num_quadrants() != b.num_quadrants() ||
      a.num_trees() != b.num_trees()) {
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

double speedup(double base_s, double new_s) {
  return new_s > 0 ? base_s / new_s : 0.0;
}

}  // namespace
}  // namespace qforest::bench

int main() {
  using namespace qforest;
  using namespace qforest::bench;

  int base_level = 3, max_depth = 8, sweeps = 3;
  if (const char* env = std::getenv("QFOREST_IT_DEPTH")) {
    max_depth = std::atoi(env);
  }
  if (const char* env = std::getenv("QFOREST_IT_SWEEPS")) {
    sweeps = std::atoi(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned workers = detail::forest_pool().size();
  bool enforce = hw >= 2 && workers >= 2;
  if (const char* env = std::getenv("QFOREST_IT_ENFORCE")) {
    enforce = std::atoi(env) != 0;
  }

  std::printf("== intra-tree work partitioning: chunked (tree x chunk) vs "
              "per-tree-only vs serial scheduling, uniform L%d -> sphere "
              "band to L%d (single tree; the 2x2x1 brick runs one level "
              "shallower), best of %d ==\n",
              base_level, max_depth, sweeps);
  std::printf("cpu: %s; hardware threads %u; forest pool workers %u; chunk "
              "grain %zu\n",
              simd::feature_string().c_str(), hw, workers, chunk_grain());

  Table table({"shape", "scheduler", "refine [s]", "balance [s]",
               "coarsen [s]", "refine speedup vs per-tree", "leaves"});
  BenchJson json;
  bool mesh_ok = true;
  double single_refine_speedup = 0;
  const std::size_t grain = chunk_grain();

  for (const bool single : {true, false}) {
    Forest<R> meshes[3] = {Forest<R>::new_root(make_conn(single)),
                           Forest<R>::new_root(make_conn(single)),
                           Forest<R>::new_root(make_conn(single))};
    SchedTimes times[3];
    const Scheduler order[3] = {Scheduler::kSerial, Scheduler::kPerTree,
                                Scheduler::kChunked};
    for (int s = 0; s < 3; ++s) {
      select(order[s], grain);
      times[s] =
          run_workflow(single, base_level, max_depth, sweeps, &meshes[s]);
    }
    select(Scheduler::kChunked, grain);  // restore the default scheduler

    for (int s = 1; s < 3; ++s) {
      if (!same_mesh(meshes[0], meshes[s])) {
        std::fprintf(stderr,
                     "FAIL: %s-tree mesh diverges between the serial and "
                     "the %s scheduler\n",
                     single ? "single" : "multi", name_of(order[s]));
        mesh_ok = false;
      }
    }

    const double refine_speedup =
        speedup(times[1].refine_s, times[2].refine_s);
    if (single) {
      single_refine_speedup = refine_speedup;
    }
    for (int s = 0; s < 3; ++s) {
      table.add_row({single ? "single" : "multi", name_of(order[s]),
                     Table::fmt(times[s].refine_s, 4),
                     Table::fmt(times[s].balance_s, 4),
                     Table::fmt(times[s].coarsen_s, 4),
                     s == 2 ? Table::fmt(refine_speedup, 2) : "-",
                     Table::fmt(static_cast<long long>(times[s].leaves))});
      const char* phases[] = {"refine", "balance", "coarsen"};
      const double secs[] = {times[s].refine_s, times[s].balance_s,
                             times[s].coarsen_s};
      const double per_tree_secs[] = {times[1].refine_s, times[1].balance_s,
                                      times[1].coarsen_s};
      for (int p = 0; p < 3; ++p) {
        json.begin_record();
        json.field("bench", "intra_tree");
        json.field("shape", single ? "single" : "multi");
        json.field("scheduler", name_of(order[s]));
        json.field("phase", phases[p]);
        json.field("seconds", secs[p]);
        json.field("speedup_vs_per_tree", speedup(per_tree_secs[p], secs[p]));
        json.field("leaves", static_cast<long long>(times[s].leaves));
        json.field("workers", static_cast<long long>(workers));
      }
    }
  }
  table.print();
  std::printf("\n(all three schedulers must produce the identical mesh; "
              "single-tree rows are the shape the per-tree scheduler "
              "cannot parallelize.)\n");
  json.write("BENCH_intra_tree.json");

  if (!mesh_ok) {
    return 1;
  }
  if (single_refine_speedup < 1.5 && enforce) {
    std::fprintf(stderr,
                 "FAIL: single-tree recursive refine speedup %.2fx < 1.5x "
                 "(chunked vs per-tree scheduler, %u workers)\n",
                 single_refine_speedup, workers);
    return 1;
  }
  if (single_refine_speedup < 1.5) {
    std::printf("note: speedup %.2fx below the 1.5x target, not enforced "
                "(%u hardware threads)\n",
                single_refine_speedup, hw);
  }
  return 0;
}
