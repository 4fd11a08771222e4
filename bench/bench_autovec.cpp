/// \file bench_autovec.cpp
/// \brief Paper contribution 5: "demonstrate the impact of our manual
/// vectorization on performance in comparison to the builtin compiler
/// vectorization". Four variants of the Child kernel:
///   1. scalar        — standard rep, -fno-tree-vectorize
///   2. autovec       — standard rep SoA loop, -O3 auto-vectorization
///   3. intrinsics    — AVX2 representation (paper Algorithm 9)
///   4. batch256      — two quadrants per 256-bit register (future work)

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "autovec_kernels.hpp"
#include "core/batch_avx.hpp"
#include "core/quadrant_avx.hpp"
#include "simd/feature_detect.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

using S = StandardRep<3>;
using A = AvxRep<3>;

struct Setup {
  SoAQuads soa;
  std::vector<std::uint8_t> child;
  std::vector<A::quad_t> avx;
  std::vector<A::quad_t> avx_out;
  std::size_t n = 0;
};

Setup make_setup(std::size_t n) {
  Setup s;
  s.n = n;
  // Uniform level so the batch kernels apply; level 6 ~ mid-depth.
  const int lvl = 6;
  const auto items = make_work_items(n, lvl, 3, 777);
  s.soa.x.reserve(n);
  s.soa.y.reserve(n);
  s.soa.z.reserve(n);
  s.soa.level.reserve(n);
  s.avx.reserve(n);
  s.avx_out.resize(n);
  s.child.reserve(n);
  for (const auto& it : items) {
    const auto q = S::morton_quadrant(it.level_index, lvl);
    s.soa.x.push_back(q.x);
    s.soa.y.push_back(q.y);
    s.soa.z.push_back(q.z);
    s.soa.level.push_back(q.level);
    s.avx.push_back(A::morton_quadrant(it.level_index, lvl));
    s.child.push_back(it.child);
  }
  return s;
}

std::uint32_t intrinsics_loop(const Setup& s) {
  simd::Vec128 sink;
  for (std::size_t i = 0; i < s.n; ++i) {
    sink = sink ^ A::child(s.avx[i], s.child[i]);
  }
  std::uint32_t out = sink.lane32<0>() ^ sink.lane32<1>() ^
                      sink.lane32<2>() ^ sink.lane32<3>();
  return out;
}

std::uint32_t batch256_loop(Setup& s) {
  // Uniform child id per pass, as in a refine sweep over one level.
  AvxBatch<3>::child_uniform(s.avx.data(), s.avx_out.data(), s.n, 5, 6);
  simd::Vec128 sink;
  for (std::size_t i = 0; i < s.n; i += 97) {
    sink = sink ^ s.avx_out[i];
  }
  return sink.lane32<0>();
}

double time_best_of(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    best = std::min(best, run());
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
  auto s = make_setup(n);

  std::printf("== Vectorization ablation (paper contribution 5): Child over "
              "%zu uniform level-6 octants ==\n",
              n);
  std::printf("cpu: %s; intrinsics %s\n", simd::feature_string().c_str(),
              QFOREST_HAVE_AVX2 ? "compiled in" : "NOT compiled (fallback)");

  std::uint32_t guard = 0;
  const int reps = 5;
  const double t_novec = time_best_of(reps, [&] {
    WallTimer t;
    guard ^= child_loop_novec(s.soa, s.child.data(), s.n);
    return t.elapsed_s();
  });
  const double t_auto = time_best_of(reps, [&] {
    WallTimer t;
    guard ^= child_loop_autovec(s.soa, s.child.data(), s.n);
    return t.elapsed_s();
  });
  const double t_intr = time_best_of(reps, [&] {
    WallTimer t;
    guard ^= intrinsics_loop(s);
    return t.elapsed_s();
  });
  const double t_batch = time_best_of(reps, [&] {
    WallTimer t;
    guard ^= batch256_loop(s);
    return t.elapsed_s();
  });
  do_not_optimize(guard);

  Table t({"variant", "time [s]", "vs scalar %"});
  t.add_row({"scalar (-fno-tree-vectorize)", Table::fmt(t_novec, 6),
             Table::fmt(0.0, 1)});
  t.add_row({"compiler autovec (-O3)", Table::fmt(t_auto, 6),
             Table::fmt(speedup_percent(t_novec, t_auto), 1)});
  t.add_row({"manual AVX2 intrinsics (Alg. 9)", Table::fmt(t_intr, 6),
             Table::fmt(speedup_percent(t_novec, t_intr), 1)});
  t.add_row({"batch 256-bit (2 quads/op)", Table::fmt(t_batch, 6),
             Table::fmt(speedup_percent(t_novec, t_batch), 1)});
  t.print();
  return 0;
}
