/// \file bench_interleave.cpp
/// \brief Ablation: the three bit-interleaving backends (BMI2 pdep/pext,
/// magic-number cascades, byte LUT) and their effect on the Figure 2
/// Morton construction. This quantifies how much of the paper's standard
/// baseline cost is the published bit loop of Algorithm 1 rather than an
/// intrinsic limit of the representation: with hardware bit-deposit the
/// standard construction closes most of the gap to the raw Morton index.

#include <cstdio>

#include "core/bits.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "simd/feature_detect.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

std::vector<std::uint64_t> make_values(std::size_t n) {
  Xoshiro256 rng(9001);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) {
    x = rng.next_u64() & bits::low_mask(21);
  }
  return v;
}

template <class Fn>
double time_spread(const std::vector<std::uint64_t>& v, int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    std::uint64_t sink = 0;
    for (const std::uint64_t x : v) {
      sink ^= fn(x);
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
  const auto values = make_values(n);
  const int reps = 5;

  std::printf("== Interleave backend ablation (%zu values) ==\n", n);
  std::printf("bmi2 usable: %s\n\n", simd::bmi2_usable() ? "yes" : "no");

  Table t({"backend", "spread3 [s]", "vs magic %"});
  const double t_magic =
      time_spread(values, reps, [](std::uint64_t x) {
        return bits::spread3_magic(x);
      });
  const double t_lut = time_spread(values, reps, [](std::uint64_t x) {
    return bits::spread3_lut(x);
  });
  const double t_hw = time_spread(values, reps, [](std::uint64_t x) {
    return bits::spread3(x);  // pdep when compiled in
  });
  t.add_row({"magic cascades", Table::fmt(t_magic, 6), Table::fmt(0.0, 1)});
  t.add_row({"byte LUT", Table::fmt(t_lut, 6),
             Table::fmt(speedup_percent(t_magic, t_lut), 1)});
  t.add_row({QFOREST_HAVE_BMI2 ? "bmi2 pdep" : "dispatch (no bmi2)",
             Table::fmt(t_hw, 6),
             Table::fmt(speedup_percent(t_magic, t_hw), 1)});
  t.print();

  // Effect on Figure 2's standard baseline.
  const auto items = make_work_items(n, kPaperMaxLevel, 3);
  using S = StandardRep<3>;
  using M = MortonRep<3>;
  auto time_ctor = [&](auto&& ctor) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      WallTimer t2;
      std::uint32_t sink = 0;
      for (const auto& it : items) {
        const auto q = ctor(it.level_index, it.level);
        sink ^= static_cast<std::uint32_t>(q.x) ^
                static_cast<std::uint32_t>(q.y) ^
                static_cast<std::uint32_t>(q.z);
      }
      do_not_optimize(sink);
      best = std::min(best, t2.elapsed_s());
    }
    return best;
  };
  const double t_alg1 = time_ctor([](morton_t il, int l) {
    return S::morton_quadrant(il, l);
  });
  const double t_pdep = time_ctor([](morton_t il, int l) {
    return S::morton_quadrant_pdep(il, l);
  });
  double t_raw;
  {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      WallTimer t2;
      std::uint64_t sink = 0;
      for (const auto& it : items) {
        sink ^= M::morton_quadrant(it.level_index, it.level);
      }
      do_not_optimize(sink);
      best = std::min(best, t2.elapsed_s());
    }
    t_raw = best;
  }

  std::printf("\nFigure-2 standard baseline with hardware deposit:\n");
  Table t2({"constructor", "time [s]", "vs Alg.1 loop %"});
  t2.add_row({"standard Alg.1 loop (paper)", Table::fmt(t_alg1, 6),
              Table::fmt(0.0, 1)});
  t2.add_row({"standard pdep variant", Table::fmt(t_pdep, 6),
              Table::fmt(speedup_percent(t_alg1, t_pdep), 1)});
  t2.add_row({"raw morton (Alg.4)", Table::fmt(t_raw, 6),
              Table::fmt(speedup_percent(t_alg1, t_raw), 1)});
  t2.print();
  return 0;
}
