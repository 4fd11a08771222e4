/// \file main.cpp
/// \brief qf_perfbench: runs one benchmark workload over the four quadrant
/// representations and prints one JSON object on stdout. run.py builds
/// and drives it; see README.md for the workloads and metrics.
///
///   qf_perfbench --workload amr_front|solver_static|paper_ops --seed N
///                --seconds S [--mode run|trace|rss] [--rep NAME]
///                [--ranks P] [--out DIR]
///
/// Modes:
///   run    warm-up, three timed set-ups of all four representations, then
///          steps round-robin over the representations for S seconds
///          (paper_ops: side by side); every round is checked across
///          representations.
///   trace  the same steps, each representation alternating an untraced
///          and a traced step; reports per-layer times and counts, and
///          writes the Chrome trace and the obs metrics snapshot to DIR.
///   rss    one representation alone: set-up and one step, then the
///          process's peak resident set size.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/feature_detect.hpp"
#include "workloads.hpp"

namespace qfb {
namespace {

using Std = qforest::StandardRep<3>;
using Mor = qforest::MortonRep<3>;
using Avx = qforest::AvxRep<3>;
using Wide = qforest::WideMortonRep<3>;
constexpr int kReps = 4;
const std::array<const char*, kReps> kRepNames = {Std::name, Mor::name,
                                                  Avx::name, Wide::name};
const std::array<std::size_t, kReps> kQuadBytes = {
    sizeof(Std::quad_t), sizeof(Mor::quad_t), sizeof(Avx::quad_t),
    sizeof(Wide::quad_t)};

constexpr double kWarmupSeconds = 2;
constexpr int kSetups = 3;     ///< setup_s is the median of these
constexpr int kMinRounds = 21;  ///< keeps the tail percentile above the median

struct Options {
  std::string workload;
  std::string mode = "run";
  std::string rep;
  std::string out = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  int ranks = 4;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The four representation states of one workload.
template <template <class> class W>
struct States {
  std::tuple<std::optional<W<Std>>, std::optional<W<Mor>>,
             std::optional<W<Avx>>, std::optional<W<Wide>>>
      s;

  template <class Fn>
  void with(int i, Fn&& fn) {
    switch (i) {
      case 0: fn(std::get<0>(s)); break;
      case 1: fn(std::get<1>(s)); break;
      case 2: fn(std::get<2>(s)); break;
      default: fn(std::get<3>(s)); break;
    }
  }
};

template <template <class> class W>
constexpr bool kSearches = std::is_same_v<W<Std>, SolverStatic<Std>>;

/// paper_ops: its steps are single-threaded and share no state.
template <template <class> class W>
constexpr bool kSideBySide = std::is_same_v<W<Std>, PaperOps<Std>>;

template <template <class> class W>
void prepare_round(Ctx& ctx, int round) {
  if constexpr (kSearches<W>) {
    ctx.points = make_points(ctx.seed, round, kSearchPoints);
  }
}

/// Untimed parallel forest work before any set-up is timed: the first
/// forest operations after an idle period run several times slower.
void warm_up(double seconds, int ranks) {
  Ctx ctx;
  ctx.seed = 7;
  ctx.ranks = ranks;
  AmrFront<Mor> w(ctx);
  w.setup();
  const double t0 = now_s();
  for (int k = 0; now_s() - t0 < seconds; ++k) {
    w.step(k);
  }
}

// ------------------------------------------------------------------ JSON

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string arr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + num(v[i]);
  }
  return out + "]";
}

std::string obj(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ",") + str(k) + ":" + num(v);
    first = false;
  }
  return out + "}";
}

/// Check results of one round: every representation's own checks, and
/// agreement of the shared outputs across representations.
struct CheckTally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void round(const std::array<StepCheck, kReps>& c, int round) {
    bool agree = true;
    for (int i = 1; i < kReps; ++i) {
      agree = agree && c[static_cast<std::size_t>(i)].agree == c[0].agree;
    }
    for (int i = 0; i < kReps; ++i) {
      const StepCheck& x = c[static_cast<std::size_t>(i)];
      ++attempted;
      if (!x.ok || !agree) {
        ++failed;
        if (failures.size() < 8) {
          failures.push_back("round " + std::to_string(round) + " " +
                             kRepNames[static_cast<std::size_t>(i)] + ": " +
                             (x.ok ? "outputs differ across representations"
                                   : x.what));
        }
      }
    }
  }

  [[nodiscard]] std::string json() const {
    std::string f = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      f += (i ? "," : "") + str(failures[i]);
    }
    return "\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"failures\":" + f + "]";
  }
};

std::string header(const Options& o) {
  return "\"workload\":" + str(o.workload) + ",\"mode\":" + str(o.mode) +
         ",\"seed\":" + std::to_string(o.seed) +
         ",\"ranks\":" + std::to_string(o.ranks) +
         ",\"pool_threads\":" +
         std::to_string(qforest::detail::forest_pool().size()) +
         ",\"cpu\":" + str(qforest::simd::feature_string()) +
         ",\"avx2_kernels\":" + (QFOREST_HAVE_AVX2 ? "true" : "false");
}

// ------------------------------------------------------------------ run

template <template <class> class W>
std::string mode_run(const Options& o, Ctx& ctx) {
  States<W> st;
  warm_up(kWarmupSeconds, o.ranks);
  std::array<std::vector<double>, kReps> setup;
  std::vector<double> setup_total;
  for (int j = 0; j < kSetups; ++j) {
    double total = 0;
    for (int i = 0; i < kReps; ++i) {
      st.with(i, [&](auto& s) {
        s.reset();
        s.emplace(ctx);
        const double t0 = now_s();
        s->setup();
        const double dt = now_s() - t0;
        setup[static_cast<std::size_t>(i)].push_back(dt);
        total += dt;
      });
    }
    setup_total.push_back(total);
  }
  std::array<std::vector<double>, kReps> steps;
  CheckTally checks;
  const double t_start = now_s();
  for (int round = 0; round < kMinRounds || now_s() - t_start < o.seconds;
       ++round) {
    prepare_round<W>(ctx, round);
    const auto timed_step = [&](int i) {
      st.with(i, [&](auto& s) {
        const double t0 = now_s();
        s->step(round);
        steps[static_cast<std::size_t>(i)].push_back(now_s() - t0);
      });
    };
    if constexpr (kSideBySide<W>) {
      // The steps are single-threaded and independent, so they run side
      // by side, up to o.ranks (min(4, nproc)) at a time. Each round then
      // meets the host at one moment, and a run collects about twice as
      // many steps, which puts the tail percentile deeper into them.
      for (int g = 0; g < kReps; g += o.ranks) {
        std::array<std::exception_ptr, kReps> errors;
        {
          std::vector<std::jthread> group;  // joined on every way out
          for (int i = g; i < std::min(kReps, g + o.ranks); ++i) {
            group.emplace_back([&, i] {
              try {
                timed_step(i);
              } catch (...) {
                errors[static_cast<std::size_t>(i)] = std::current_exception();
              }
            });
          }
        }
        for (const std::exception_ptr& e : errors) {
          if (e) {
            std::rethrow_exception(e);
          }
        }
      }
    } else {
      // Rotate which representation goes first, so none always runs right
      // after the untimed checks.
      for (int j = 0; j < kReps; ++j) {
        timed_step((round + j) % kReps);
      }
    }
    std::array<StepCheck, kReps> c;
    for (int i = 0; i < kReps; ++i) {
      st.with(i, [&](auto& s) { c[static_cast<std::size_t>(i)] = s->check(); });
    }
    checks.round(c, round);
  }
  std::string reps = "{";
  for (int i = 0; i < kReps; ++i) {
    reps += (i ? "," : "") + str(kRepNames[static_cast<std::size_t>(i)]) +
            ":{\"setup_s\":" + arr(setup[static_cast<std::size_t>(i)]) +
            ",\"step_s\":" + arr(steps[static_cast<std::size_t>(i)]) + "}";
  }
  return checks.json() + ",\"setup_total_s\":" + arr(setup_total) +
         ",\"reps\":" + reps + "}";
}

// ------------------------------------------------------------------ trace

/// Timed per-layer names (the metric stems; run.py appends ".<rep>").
const std::vector<std::pair<const char*, const char*>> kLayerSpans = {
    {"forest.refine_s", "forest.refine"},
    {"forest.coarsen_s", "forest.coarsen"},
    {"forest.balance_s", "forest.balance"},
    {"forest.partition_s", "forest.partition"},
    {"forest.ghost_layer_s", "forest.ghost_layer"},
    {"forest.rank_work_split_s", "forest.rank_work_split"},
    {"forest.iterate_faces_s", "forest.iterate_faces"},
    {"forest.search_points_s", "forest.search_points"},
    {"io.exchange_s", "io.exchange"},
};

std::uint64_t counter_value(const char* name) {
  return qforest::obs::counter(name).value();
}

struct RepTrace {
  std::vector<double> untraced;
  std::vector<double> traced;
  std::map<std::string, double> layer;   ///< sums over traced steps
  std::map<std::string, double> counts;  ///< sums over traced steps
};

template <template <class> class W>
std::string mode_trace(const Options& o, Ctx& ctx) {
  namespace obs = qforest::obs;
  States<W> st;
  warm_up(kWarmupSeconds, o.ranks);
  for (int i = 0; i < kReps; ++i) {
    st.with(i, [&](auto& s) {
      s.emplace(ctx);
      s->setup();
    });
  }
  obs::clear_trace();
  obs::reset_metrics();
  std::array<RepTrace, kReps> tr;
  CheckTally checks;
  const double t_start = now_s();
  for (int round = 0; round < 3 || now_s() - t_start < o.seconds; ++round) {
    prepare_round<W>(ctx, round);
    std::array<StepCheck, kReps> plain;
    std::array<StepCheck, kReps> traced;
    for (int j = 0; j < kReps; ++j) {
      const int i = (round + j) % kReps;
      RepTrace& t = tr[static_cast<std::size_t>(i)];
      st.with(i, [&](auto& s) {
        double t0 = now_s();
        s->step(2 * round);
        t.untraced.push_back(now_s() - t0);
        plain[static_cast<std::size_t>(i)] = s->check();

        ctx.counting = true;
        ctx.adapt.reset();
        const std::uint64_t iters0 = counter_value("forest.balance.iterations");
        const std::uint64_t tasks0 = counter_value("par.pool.tasks");
        const std::uint64_t idle0 = counter_value("par.pool.idle_wait_ns");
        const std::uint64_t sends0 = counter_value("par.msg.sends");
        span_log().set_enabled(true);
        obs::set_metrics(true);
        obs::set_tracing(true);
        t0 = now_s();
        s->step(2 * round + 1);
        t.traced.push_back(now_s() - t0);
        obs::set_metrics(false);
        s->core_probe();
        obs::set_tracing(false);
        span_log().set_enabled(false);
        ctx.counting = false;

        const auto agg = self_seconds(span_log().take());
        const auto self = [&](const char* name) {
          const auto it = agg.find(name);
          return it == agg.end() ? 0.0 : it->second;
        };
        for (const auto& [metric, span] : kLayerSpans) {
          t.layer[metric] += self(span);
        }
        const auto& op_ns = s->core_op_ns();
        for (std::size_t k = 0; k < kCoreOps; ++k) {
          t.layer[std::string(kCoreOpNames[k]) + "_ns"] +=
              static_cast<double>(op_ns[k]) / std::max(1.0, s->probe_quads());
        }
        const StepCounts sc = s->counts();
        t.layer["io.rank_s_max"] += sc.rank_s_max;
        t.layer["io.rank_imbalance"] += sc.rank_imbalance;
        t.layer["par.pool_idle_wait_s"] +=
            static_cast<double>(counter_value("par.pool.idle_wait_ns") - idle0) *
            1e-9;
        auto& c = t.counts;
        c["forest.refine_calls"] += static_cast<double>(ctx.adapt.sum(kRefineCalls));
        c["forest.refined"] += static_cast<double>(ctx.adapt.sum(kRefined));
        c["forest.coarsen_calls"] += static_cast<double>(ctx.adapt.sum(kCoarsenCalls));
        c["forest.coarsened"] += static_cast<double>(ctx.adapt.sum(kCoarsened));
        c["forest.balance_splits"] += sc.balance_splits;
        c["forest.balance_iterations"] += static_cast<double>(
            counter_value("forest.balance.iterations") - iters0);
        c["forest.leaves"] += sc.leaves;
        c["forest.ghosts"] += sc.ghosts;
        c["forest.mirrors"] += sc.mirrors;
        c["forest.faces"] += static_cast<double>(ctx.faces.sum(kFaces));
        c["io.exchange_messages"] +=
            static_cast<double>(counter_value("par.msg.sends") - sends0);
        c["io.exchange_bytes"] += sc.exchange_bytes;
        c["par.pool_tasks"] +=
            static_cast<double>(counter_value("par.pool.tasks") - tasks0);
        traced[static_cast<std::size_t>(i)] = s->check();
      });
    }
    checks.round(plain, 2 * round);
    checks.round(traced, 2 * round + 1);
  }
  const std::string trace_path = o.out + "/trace.json";
  const std::string metrics_path = o.out + "/metrics.json";
  const bool wrote = obs::write_trace_json(trace_path.c_str());
  {
    std::ofstream m(metrics_path);
    m << obs::metrics_json() << "\n";
  }
  std::string reps = "{";
  for (int i = 0; i < kReps; ++i) {
    RepTrace& t = tr[static_cast<std::size_t>(i)];
    const auto n = static_cast<double>(t.traced.size());
    std::map<std::string, double> layer;
    for (const auto& [k, v] : t.layer) {
      layer[k] = v / n;
    }
    std::map<std::string, double> counts;
    for (const auto& [k, v] : t.counts) {
      counts[k] = v / n;
    }
    const double calls = t.counts["forest.refine_calls"];
    const double ccalls = t.counts["forest.coarsen_calls"];
    counts["forest.refine_accept_ratio"] =
        calls > 0 ? t.counts["forest.refined"] / calls : 0.0;
    counts["forest.coarsen_accept_ratio"] =
        ccalls > 0 ? t.counts["forest.coarsened"] / ccalls : 0.0;
    layer["core.quad_bytes"] =
        static_cast<double>(kQuadBytes[static_cast<std::size_t>(i)]);
    reps += (i ? "," : "") + str(kRepNames[static_cast<std::size_t>(i)]) +
            ":{\"layer\":" + obj(layer) + ",\"counts\":" + obj(counts) +
            ",\"step_s_untraced\":" + arr(t.untraced) +
            ",\"step_s_traced\":" + arr(t.traced) + "}";
  }
  return checks.json() + ",\"trace_file\":" + str(wrote ? trace_path : "") +
         ",\"metrics_file\":" + str(metrics_path) + ",\"reps\":" + reps + "}";
}

// ------------------------------------------------------------------ rss

/// VmHWM of this process. Unlike getrusage's ru_maxrss, it starts afresh
/// at exec, so the launching process's own footprint does not leak in.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

template <template <class> class W>
std::string mode_rss(const Options& o, Ctx& ctx) {
  States<W> st;
  int found = -1;
  for (int i = 0; i < kReps; ++i) {
    if (o.rep == kRepNames[static_cast<std::size_t>(i)]) {
      found = i;
    }
  }
  if (found < 0) {
    throw std::invalid_argument("unknown --rep " + o.rep);
  }
  bool ok = true;
  st.with(found, [&](auto& s) {
    s.emplace(ctx);
    s->setup();
    prepare_round<W>(ctx, 0);
    s->step(0);
    ok = s->check().ok;
  });
  return "\"rep\":" + str(o.rep) + ",\"ok\":" + (ok ? "true" : "false") +
         ",\"peak_rss_mb\":" + num(peak_rss_kib() / 1024.0);
}

template <template <class> class W>
std::string dispatch(const Options& o, Ctx& ctx) {
  if (o.mode == "run") {
    return mode_run<W>(o, ctx);
  }
  if (o.mode == "trace") {
    return mode_trace<W>(o, ctx);
  }
  if (o.mode == "rss") {
    return mode_rss<W>(o, ctx);
  }
  throw std::invalid_argument("unknown --mode " + o.mode);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string k = argv[a];
    const std::string v = argv[a + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--mode") {
      o.mode = v;
    } else if (k == "--rep") {
      o.rep = v;
    } else if (k == "--out") {
      o.out = v;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--ranks") {
      o.ranks = std::stoi(v);
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (o.ranks < 1) {
    throw std::invalid_argument("--ranks must be positive");
  }
  return o;
}

}  // namespace
}  // namespace qfb

int main(int argc, char** argv) {
  using namespace qfb;
  try {
    const Options o = parse(argc, argv);
    Ctx ctx;
    ctx.seed = o.seed;
    ctx.ranks = o.ranks;
    std::string body;
    if (o.workload == "amr_front") {
      body = dispatch<AmrFront>(o, ctx);
    } else if (o.workload == "solver_static") {
      body = dispatch<SolverStatic>(o, ctx);
    } else if (o.workload == "paper_ops") {
      ctx.paper_items = qforest::bench::make_work_items(
          qforest::bench::kPaperQuadrantCount, qforest::bench::kPaperMaxLevel,
          3, mix64(o.seed));
      body = dispatch<PaperOps>(o, ctx);
    } else {
      throw std::invalid_argument("unknown --workload " + o.workload);
    }
    std::printf("{%s,%s}\n", header(o).c_str(), body.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qf_perfbench: %s\n", e.what());
    return 2;
  }
}
