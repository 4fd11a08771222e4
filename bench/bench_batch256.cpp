/// \file bench_batch256.cpp
/// \brief Ablation for the paper's future-work item "use of a wider
/// register capacity (256-bit AVX2)": batched two-quadrants-per-register
/// Child / Parent / FNeigh versus the per-quadrant 128-bit kernels.

#include <cstdio>
#include <vector>

#include "core/batch_avx.hpp"
#include "core/quadrant_avx.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

using A = AvxRep<3>;
using Batch = AvxBatch<3>;

struct Setup {
  std::vector<A::quad_t> in;
  std::vector<A::quad_t> out;
  int level = 6;
};

Setup make_setup(std::size_t n, int level) {
  Setup s;
  s.level = level;
  Xoshiro256 rng(515);
  s.in.reserve(n);
  s.out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.in.push_back(A::morton_quadrant(
        rng.next_below(morton_t{1} << (3 * level)), level));
  }
  return s;
}

template <class Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
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
  auto s = make_setup(n, 6);
  const int reps = 5;

  std::printf("== 256-bit batch ablation (future work): %zu uniform "
              "level-%d octants, vectorized build: %s ==\n\n",
              n, s.level, Batch::vectorized() ? "yes" : "no (fallback)");

  Table t({"kernel", "per-quad 128-bit [s]", "batch 256-bit [s]",
           "batch boost %"});

  const double c128 = best_of(reps, [&] {
    for (std::size_t i = 0; i < s.in.size(); ++i) {
      s.out[i] = A::child(s.in[i], 5);
    }
    do_not_optimize(s.out.front());
  });
  const double c256 = best_of(reps, [&] {
    Batch::child_uniform(s.in.data(), s.out.data(), s.in.size(), 5, s.level);
    do_not_optimize(s.out.front());
  });
  t.add_row({"child", Table::fmt(c128, 6), Table::fmt(c256, 6),
             Table::fmt(speedup_percent(c128, c256), 1)});

  const double p128 = best_of(reps, [&] {
    for (std::size_t i = 0; i < s.in.size(); ++i) {
      s.out[i] = A::parent(s.in[i]);
    }
    do_not_optimize(s.out.front());
  });
  const double p256 = best_of(reps, [&] {
    Batch::parent_uniform(s.in.data(), s.out.data(), s.in.size(), s.level);
    do_not_optimize(s.out.front());
  });
  t.add_row({"parent", Table::fmt(p128, 6), Table::fmt(p256, 6),
             Table::fmt(speedup_percent(p128, p256), 1)});

  const double f128 = best_of(reps, [&] {
    for (std::size_t i = 0; i < s.in.size(); ++i) {
      s.out[i] = A::face_neighbor(s.in[i], 1);
    }
    do_not_optimize(s.out.front());
  });
  const double f256 = best_of(reps, [&] {
    Batch::face_neighbor_uniform(s.in.data(), s.out.data(), s.in.size(), 1,
                                 s.level);
    do_not_optimize(s.out.front());
  });
  t.add_row({"face_neighbor", Table::fmt(f128, 6), Table::fmt(f256, 6),
             Table::fmt(speedup_percent(f128, f256), 1)});

  t.print();
  return 0;
}
