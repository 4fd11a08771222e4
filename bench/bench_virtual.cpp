/// \file bench_virtual.cpp
/// \brief Ablation: cost of the runtime virtualized-quadrant interface
/// (one virtual call + box/unbox per operation) versus compile-time
/// traits. Quantifies the trade-off the paper's conclusion discusses:
/// "we cannot predict whether the new interface and glue code will be
/// acceptable to the community".

#include <cstdio>

#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "core/virtual_ops.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

template <class R>
double time_static_child(const std::vector<WorkItem>& items, int reps) {
  const auto w = Workload<R>::build(items);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < w.quads.size(); ++i) {
      if (R::level(w.quads[i]) >= R::max_level) {
        continue;
      }
      sink ^= static_cast<std::uint64_t>(
          R::child_id(R::child(w.quads[i], w.items[i].child)));
    }
    do_not_optimize(sink);
    best = std::min(best, t.elapsed_s());
  }
  return best;
}

double time_virtual_child(RepKind kind, const std::vector<WorkItem>& items,
                          int reps) {
  const VirtualQuadrantOps& ops = virtual_ops(kind, 3);
  std::vector<VQuad> quads;
  quads.reserve(items.size());
  for (const auto& it : items) {
    quads.push_back(ops.morton_quadrant(it.level_index, it.level));
  }
  const int max_level = ops.max_level();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < quads.size(); ++i) {
      if (ops.level(quads[i]) >= max_level) {
        continue;
      }
      sink ^= static_cast<std::uint64_t>(
          ops.child_id(ops.child(quads[i], items[i].child)));
    }
    do_not_optimize(sink);
    best = std::min(best, t.elapsed_s());
  }
  return best;
}

}  // namespace
}  // namespace qforest::bench

int main() {
  using namespace qforest;
  using namespace qforest::bench;

  std::size_t n = kPaperQuadrantCount;
  if (const char* env = std::getenv("QFOREST_BENCH_N")) {
    n = std::strtoull(env, nullptr, 10);
  }
  const auto items = make_work_items(n, kPaperMaxLevel, 3);
  const int reps = 5;

  std::printf("== Virtual dispatch ablation: Child+child_id over %zu 3D "
              "quadrants ==\n\n",
              n);
  Table t({"representation", "static traits [s]", "virtual vtable [s]",
           "dispatch overhead %"});

  struct Row {
    const char* name;
    double stat;
    double virt;
  };
  const Row rows[] = {
      {"standard", time_static_child<StandardRep<3>>(items, reps),
       time_virtual_child(RepKind::kStandard, items, reps)},
      {"morton", time_static_child<MortonRep<3>>(items, reps),
       time_virtual_child(RepKind::kMorton, items, reps)},
      {"avx", time_static_child<AvxRep<3>>(items, reps),
       time_virtual_child(RepKind::kAvx, items, reps)},
      {"wide-morton", time_static_child<WideMortonRep<3>>(items, reps),
       time_virtual_child(RepKind::kWideMorton, items, reps)},
  };
  for (const Row& r : rows) {
    t.add_row({r.name, Table::fmt(r.stat, 6), Table::fmt(r.virt, 6),
               Table::fmt(100.0 * (r.virt - r.stat) / r.stat, 1)});
  }
  t.print();
  return 0;
}
