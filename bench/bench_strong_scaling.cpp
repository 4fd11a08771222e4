/// \file bench_strong_scaling.cpp
/// \brief Strong scaling of the sharded asynchronous ghost exchange: a
/// mixed adapt + ghost-exchange workload at 8/16/32/64 simulated ranks,
/// each rank a worker thread with an MPSC mailbox (message_queue.hpp).
///
/// Workload per rank count p: the shared sphere-band mesh (2x2x1 brick,
/// balanced, payload channel on) is re-sharded with set_num_ranks(p) and
/// lightly adapted (one refine+coarsen+balance churn — the adapt share of
/// the mix, timed separately); then the timed exchange rounds run
/// exchange_ghost_payloads with the rank_work_split compute hooks: the
/// interior pass (leaves touching no remote leaf) overlaps with the
/// in-flight exchange, the boundary pass consumes the drained ghost
/// buffer. A configurable simulated interconnect latency per message
/// (QFOREST_SS_LATENCY_US, default 100) models the network the overlap is
/// supposed to hide — in-process delivery is otherwise instantaneous.
///
/// Reported per p: wall time with overlap, wall time under the
/// GhostExchangeOptions::overlap = false order (post, wait, then
/// compute), speedup and scaling efficiency against the single-rank
/// serial reference, the overlap-vs-no-overlap boost and per-rank worker
/// times. Every round's exchanged payloads are compared against the
/// shared-memory Forest::ghost_exchange reference; the binary exits
/// nonzero on any mismatch. On a host with >= 4 cores and a mesh >= 1M
/// leaves, the run also fails unless efficiency at 16 ranks reaches 60%
/// and some rank count shows an overlap boost.
/// Results land on stdout and in BENCH_strong_scaling.json.
///
/// Env knobs: QFOREST_SS_DEPTH (refine depth, default 8 -> ~2.2M leaves),
/// QFOREST_SS_SWEEPS (best-of repetitions, default 3), QFOREST_SS_ROUNDS
/// (exchange rounds per sweep, default 2), QFOREST_SS_WORK (compute
/// iterations per leaf, default 32), QFOREST_SS_LATENCY_US,
/// QFOREST_SS_MAX_RANKS (default 64).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/quadrant_morton.hpp"
#include "forest/forest.hpp"
#include "forest/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/strong_scaling.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace qforest::bench {
namespace {

using R3 = MortonRep<3>;

constexpr double kEnforceMinEfficiency = 0.60;  // at 16 ranks
constexpr gidx_t kEnforceMinLeaves = 1000000;
constexpr unsigned kEnforceMinCores = 4;

struct Knobs {
  int base_level = 3;
  int max_depth = 8;
  int sweeps = 3;
  int rounds = 2;
  int work_iters = 32;
  int latency_us = 100;
  int max_ranks = 64;
};

int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atoi(env) : fallback;
}

Forest<R3> make_mesh(const Knobs& k) {
  auto f = Forest<R3>::new_uniform(Connectivity::brick3d(2, 2, 1),
                                   k.base_level, 1);
  f.refine(true, [&](tree_id_t, const R3::quad_t& q) {
    return R3::level(q) < k.max_depth && near_sphere<R3>(q);
  });
  f.balance(BalanceKind::kFull);
  f.partition();
  f.enable_payload();
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    for (std::size_t i = 0; i < f.tree_quadrants(t).size(); ++i) {
      f.payload(t, i) = 0x9E3779B97F4A7C15ull *
                        static_cast<std::uint64_t>(f.global_index(t, i) + 1);
    }
  }
  return f;
}

inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// The per-leaf compute kernel of both passes: \p iters rounds of mixing
/// seeded by the leaf's payload.
inline std::uint64_t leaf_work(std::uint64_t payload, int iters) {
  std::uint64_t x = payload;
  for (int k = 0; k < iters; ++k) {
    x = mix(x + static_cast<std::uint64_t>(k));
  }
  return x;
}

/// One adapt churn: refine a deterministic scatter one level, coarsen it
/// back, rebalance — the "adapt" share of the mixed workload.
double adapt_churn(Forest<R3>& f, int max_depth) {
  WallTimer t;
  f.refine(false, [&](tree_id_t tr, const R3::quad_t& q) {
    return R3::level(q) < max_depth + 1 &&
           (R3::level_index(q) + static_cast<morton_t>(tr)) % 97 == 0;
  });
  f.coarsen(false, [&](tree_id_t, const R3::quad_t* fam) {
    return R3::level(fam[0]) > max_depth;
  });
  f.balance(BalanceKind::kFull);
  f.partition();
  return t.elapsed_s();
}

/// Everything precomputed per rank count, outside the timed region.
struct ShardSetup {
  std::vector<GhostLayer<R3>> ghosts;
  std::vector<RankWorkSplit> splits;
  std::vector<std::vector<std::uint64_t>> reference;
  std::vector<std::uint64_t> sinks;  ///< one compute sink per rank
};

ShardSetup prepare_shards(const Forest<R3>& f) {
  ShardSetup s;
  const int p = f.num_ranks();
  s.ghosts.reserve(static_cast<std::size_t>(p));
  s.splits.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    s.ghosts.push_back(f.ghost_layer(r));
    s.splits.push_back(f.rank_work_split(r));
    s.reference.push_back(f.ghost_exchange(r, s.ghosts.back()));
  }
  s.sinks.assign(static_cast<std::size_t>(p), 0);
  return s;
}

/// One timed exchange+compute round over every rank; returns the wall
/// time and fills per-rank worker times. Exits on payload mismatch.
double timed_round(const Forest<R3>& f, ShardSetup& s, bool overlap,
                   const Knobs& k, std::vector<double>* rank_seconds) {
  GhostExchangeOptions opt;
  opt.overlap = overlap;
  opt.delivery_delay = std::chrono::microseconds(k.latency_us);
  // Walk a global-index run with a (tree, index) cursor instead of a
  // per-leaf locate.
  const auto run_work = [&](gidx_t a, gidx_t b, int iters) {
    auto [t, i] = f.locate(a);
    std::uint64_t acc = 0;
    const std::vector<std::uint64_t>* pay = &f.tree_payloads(t);
    std::size_t sz = pay->size();
    for (gidx_t g = a; g < b; ++g) {
      while (i >= sz) {
        ++t;
        i = 0;
        pay = &f.tree_payloads(t);
        sz = pay->size();
      }
      acc += leaf_work((*pay)[i], iters);
      ++i;
    }
    return acc;
  };
  WallTimer wall;
  const GhostExchangeResult res = exchange_ghost_payloads(
      f, s.ghosts, opt,
      [&](int rank) {
        // Interior pass: ghost-independent, overlaps the exchange.
        std::uint64_t acc = 0;
        for (const auto& [a, b] :
             s.splits[static_cast<std::size_t>(rank)].interior) {
          acc += run_work(a, b, k.work_iters);
        }
        s.sinks[static_cast<std::size_t>(rank)] += acc;
      },
      [&](int rank, const std::vector<std::uint64_t>& ghost_payloads) {
        // Boundary pass: folds the drained ghost buffer into the
        // rank's mirror leaves.
        std::uint64_t acc = 0;
        for (const gidx_t g :
             s.splits[static_cast<std::size_t>(rank)].boundary) {
          acc += run_work(g, g + 1, k.work_iters);
        }
        for (const std::uint64_t v : ghost_payloads) {
          acc += leaf_work(v, k.work_iters);
        }
        s.sinks[static_cast<std::size_t>(rank)] += acc;
      });
  const double seconds = wall.elapsed_s();
  if (res.payloads != s.reference) {
    std::fprintf(stderr,
                 "FAIL: sharded exchange diverges from the single-rank "
                 "reference at %d ranks (overlap=%d)\n",
                 f.num_ranks(), overlap ? 1 : 0);
    std::exit(1);
  }
  if (rank_seconds != nullptr) {
    *rank_seconds = res.rank_seconds;
  }
  do_not_optimize(s.sinks[0]);
  return seconds;
}

/// Best-of-sweeps timing of \p rounds exchange rounds.
double timed_series(const Forest<R3>& f, ShardSetup& s, bool overlap,
                    const Knobs& k, std::vector<double>* rank_seconds) {
  double best = 0;
  for (int sweep = 0; sweep < k.sweeps; ++sweep) {
    double total = 0;
    for (int round = 0; round < k.rounds; ++round) {
      total += timed_round(f, s, overlap, k,
                           round == 0 ? rank_seconds : nullptr);
    }
    if (sweep == 0 || total < best) {
      best = total;
    }
  }
  return best;
}

}  // namespace
}  // namespace qforest::bench

int main() {
  using namespace qforest;
  using namespace qforest::bench;

  Knobs k;
  k.max_depth = env_int("QFOREST_SS_DEPTH", k.max_depth);
  k.sweeps = env_int("QFOREST_SS_SWEEPS", k.sweeps);
  k.rounds = env_int("QFOREST_SS_ROUNDS", k.rounds);
  k.work_iters = env_int("QFOREST_SS_WORK", k.work_iters);
  k.latency_us = env_int("QFOREST_SS_LATENCY_US", k.latency_us);
  k.max_ranks = env_int("QFOREST_SS_MAX_RANKS", k.max_ranks);

  const unsigned cores = std::thread::hardware_concurrency();
  Forest<R3> mesh = make_mesh(k);
  const gidx_t leaves = mesh.num_quadrants();
  std::printf("== strong scaling: sharded async ghost exchange + overlap, "
              "2x2x1 brick sphere band L%d, %lld leaves, %u hw cores, "
              "%dus simulated latency, best of %d x %d rounds ==\n",
              k.max_depth, static_cast<long long>(leaves), cores,
              k.latency_us, k.sweeps, k.rounds);

  BenchJson json;

  // Serial reference: the same churn + compute at 1 rank — no peers, no
  // messages, the whole range is interior. Every rank count below runs
  // on its own copy of the pristine mesh, so the deterministic churn
  // produces the identical mesh everywhere and the timings compare
  // like with like.
  double serial_s = 0;
  {
    Forest<R3> f = mesh;
    f.set_num_ranks(1);
    (void)adapt_churn(f, k.max_depth);
    ShardSetup serial_setup = prepare_shards(f);
    serial_s = timed_series(f, serial_setup, true, k, nullptr);
  }
  std::printf("serial reference (1 rank): %.4fs\n", serial_s);

  Table table({"ranks", "overlap [s]", "no-overlap [s]", "speedup",
               "efficiency %", "overlap boost %", "adapt [s]",
               "rank max/min [s]"});
  bool any_overlap_boost = false;
  double efficiency_at_16 = -1.0;

  for (const int p : par::shard_rank_counts(k.max_ranks)) {
    Forest<R3> f = mesh;
    f.set_num_ranks(p);
    const double adapt_s = adapt_churn(f, k.max_depth);
    ShardSetup setup = prepare_shards(f);
    std::vector<double> rank_seconds;
    const double overlap_s = timed_series(f, setup, true, k, &rank_seconds);
    const double no_overlap_s = timed_series(f, setup, false, k, nullptr);
    const double speedup = overlap_s > 0 ? serial_s / overlap_s : 0.0;
    const double efficiency =
        par::scaling_efficiency(serial_s, overlap_s, p, cores);
    const double boost =
        overlap_s > 0 ? (no_overlap_s / overlap_s - 1.0) * 100.0 : 0.0;
    if (p == 16) {
      efficiency_at_16 = efficiency;
    }
    if (boost > 0) {
      any_overlap_boost = true;
    }
    double rmin = rank_seconds.empty() ? 0 : rank_seconds[0];
    double rmax = rmin;
    for (const double s : rank_seconds) {
      rmin = s < rmin ? s : rmin;
      rmax = s > rmax ? s : rmax;
    }
    table.add_row({Table::fmt(static_cast<long long>(p)),
                   Table::fmt(overlap_s, 4), Table::fmt(no_overlap_s, 4),
                   Table::fmt(speedup, 2), Table::fmt(efficiency * 100, 1),
                   Table::fmt(boost, 1), Table::fmt(adapt_s, 4),
                   Table::fmt(rmax, 4) + "/" + Table::fmt(rmin, 4)});

    json.begin_record();
    json.field("bench", "strong_scaling");
    json.field("rep", R3::name);
    json.field("phase", std::string("exchange_p") + std::to_string(p));
    json.field("ranks", static_cast<long long>(p));
    json.field("serial_seconds", serial_s);
    json.field("overlap_seconds", overlap_s);
    json.field("no_overlap_seconds", no_overlap_s);
    json.field("adapt_seconds", adapt_s);
    json.field("boost_percent", (speedup - 1.0) * 100.0);
    json.field("efficiency_percent", efficiency * 100.0);
    json.field("overlap_boost_percent", boost);
    json.field("leaves", static_cast<long long>(leaves));
    json.field("hw_cores", static_cast<long long>(cores));
    json.field("latency_us", static_cast<long long>(k.latency_us));
    // The regression gate only scores this record on hosts where the
    // measurement is meaningful (>= 2 cores: threads actually overlap).
    json.field("gate", cores >= 2);
    for (std::size_t r = 0; r < rank_seconds.size(); ++r) {
      json.begin_record();
      json.field("bench", "strong_scaling");
      json.field("rep", R3::name);
      json.field("phase",
                 std::string("rank_time_p") + std::to_string(p) + "_r" +
                     std::to_string(r));
      json.field("ranks", static_cast<long long>(p));
      json.field("rank", static_cast<long long>(r));
      json.field("seconds", rank_seconds[r]);
    }
  }

  table.print();
  std::printf("\n(every round's exchanged payloads are verified against "
              "the shared-memory single-rank reference.)\n");

  // Metrics snapshot: one untimed exchange round (both overlap orders) at
  // a modest rank count with the obs registry enabled — the message/round
  // counters land in the JSON artifact next to the timings. The timed
  // series above ran with metrics off, so the gated records are
  // unaffected.
  {
    const int p = std::min(8, k.max_ranks);
    Forest<R3> f = mesh;
    f.set_num_ranks(p);
    ShardSetup setup = prepare_shards(f);
    obs::reset_metrics();
    obs::set_metrics(true);
    (void)timed_round(f, setup, true, k, nullptr);
    (void)timed_round(f, setup, false, k, nullptr);
    obs::set_metrics(false);
    json.begin_record();
    json.field("bench", "strong_scaling");
    json.field("rep", R3::name);
    json.field("phase", "metrics_snapshot");
    json.field("ranks", static_cast<long long>(p));
    json.field_raw("metrics", obs::metrics_json());
    std::printf("\n== obs metrics (one enabled exchange round per overlap "
                "order, %d ranks) ==\n%s",
                p, obs::metrics_summary().c_str());
  }

  json.write("BENCH_strong_scaling.json");
  // Under QFOREST_TRACE=1 every span from the run above (including the
  // metrics-snapshot rounds) lands in the Perfetto-loadable trace; the
  // overlap ablation is visible as ghost.interior spans inside (overlap)
  // or after (no-overlap) the ghost.inflight spans.
  obs::write_trace_if_enabled("TRACE_strong_scaling.json");

  const bool enforceable =
      cores >= kEnforceMinCores && leaves >= kEnforceMinLeaves;
  if (enforceable) {
    if (efficiency_at_16 >= 0.0 && efficiency_at_16 < kEnforceMinEfficiency) {
      std::fprintf(stderr,
                   "FAIL: scaling efficiency at 16 ranks %.1f%% below the "
                   "%.0f%% floor on a %u-core host\n",
                   efficiency_at_16 * 100.0, kEnforceMinEfficiency * 100.0,
                   cores);
      return 1;
    }
    if (!any_overlap_boost) {
      std::fprintf(stderr,
                   "FAIL: no rank count showed an overlap-vs-no-overlap "
                   "boost at %lld leaves\n",
                   static_cast<long long>(leaves));
      return 1;
    }
  } else {
    std::printf("(enforcement skipped: needs >= %u cores and >= %lld "
                "leaves; host has %u cores, mesh %lld leaves)\n",
                kEnforceMinCores,
                static_cast<long long>(kEnforceMinLeaves), cores,
                static_cast<long long>(leaves));
  }
  return 0;
}
