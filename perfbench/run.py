#!/usr/bin/env python3
"""qforest benchmark: one command for the three workloads of README.md.

    python3 perfbench/run.py --workload amr_front|solver_static|paper_ops \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/ (and the library) into
.bench_build/perfbench, runs qf_perfbench, checks the outputs and prints
every metric by name and unit. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0  end-to-end metrics: set-up time, median and tail step time per
           representation, and the peak RSS of a process per representation.
--trace 1  per-layer metrics from a traced run; the Chrome trace and the obs
           metrics snapshot are written under .bench_build/out/ and the trace
           is checked with tools/validate_trace.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPS = ["standard", "morton", "avx", "wide-morton"]
WORKLOADS = ["amr_front", "solver_static", "paper_ops"]
BUILD_DIR = Path(".bench_build") / "perfbench"
BINARY = BUILD_DIR / "qf_perfbench"
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
CHILD_TIMEOUT_S = 170

# Per-layer metrics reported for every representation (".<rep>" suffix).
LAYER_TIMED = [
    ("core.morton_quadrant_ns", "ns"), ("core.child_ns", "ns"),
    ("core.face_neighbor_ns", "ns"), ("core.parent_ns", "ns"),
    ("core.sibling_ns", "ns"), ("core.tree_boundaries_ns", "ns"),
    ("core.batch.child_ns", "ns"), ("core.batch.parent_ns", "ns"),
    ("core.batch.sibling_ns", "ns"), ("core.batch.face_neighbor_ns", "ns"),
    ("core.batch.neighbor_offset_ns", "ns"),
    ("core.batch.morton_quadrant_ns", "ns"),
    ("core.quad_bytes", "B"),
    ("forest.refine_s", "s"), ("forest.coarsen_s", "s"),
    ("forest.balance_s", "s"), ("forest.partition_s", "s"),
    ("forest.ghost_layer_s", "s"), ("forest.rank_work_split_s", "s"),
    ("forest.iterate_faces_s", "s"), ("forest.search_points_s", "s"),
    ("io.exchange_s", "s"), ("io.rank_s_max", "s"),
    ("io.rank_imbalance", "ratio"),
    ("par.pool_idle_wait_s", "s"),
    ("obs.trace_overhead", "ratio"),
]
# Per-layer counts: the mesh does not depend on the representation, so
# these carry no suffix and must agree across representations.
LAYER_COUNTS = [
    "forest.refine_calls", "forest.refined", "forest.refine_accept_ratio",
    "forest.coarsen_calls", "forest.coarsened", "forest.coarsen_accept_ratio",
    "forest.balance_splits", "forest.balance_iterations", "forest.leaves",
    "forest.ghosts", "forest.mirrors", "forest.faces",
    "io.exchange_messages", "io.exchange_bytes", "par.pool_tasks",
]
RATIO_COUNTS = {"forest.refine_accept_ratio", "forest.coarsen_accept_ratio"}


def log(msg: str) -> None:
    print(msg, flush=True)


def fail(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def build() -> None:
    if not Path("perfbench/CMakeLists.txt").is_file():
        fail("run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, check=False)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def child_env(threads: int) -> dict[str, str]:
    """The environment without inherited QFOREST_* switches (ablations,
    serial modes, trace/metrics gates), with the pool size pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QFOREST_")}
    env["QFOREST_THREADS"] = str(threads)
    return env


def run_child(args: list[str], env: dict[str, str]) -> dict:
    cmd = [str(BINARY)] + args
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env, timeout=CHILD_TIMEOUT_S,
                             check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-4000:])
        fail(f"exit {res.returncode}: " + " ".join(cmd))
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail("no output: " + " ".join(cmd))
    return json.loads(lines[-1])


def source_digest() -> str:
    """Digest of the sources the benchmark builds (the checkout it runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench", "bench", "CMakeLists.txt"):
        p = Path(top)
        files += [p] if p.is_file() else sorted(x for x in p.rglob("*") if x.is_file())
    for f in files:
        h.update(str(f).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=False)
        return res.stdout.strip() or "n/a"
    except OSError:
        return "n/a"


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the (TAIL_BEYOND+1)-th largest sample, and its percentile."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        fail(f"{len(s)} samples leave no tail percentile")
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(args, env, ranks) -> tuple[bool, int, int, dict]:
    out = run_child(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--ranks", str(ranks),
                     "--mode", "run"], env)
    log(f"cpu: {out['cpu']} (avx2 kernels compiled: {out['avx2_kernels']}), "
        f"pool threads {out['pool_threads']}, ranks {out['ranks']}")
    attempted, failed = out["attempted"], out["failed"]
    for f in out["failures"]:
        log(f"FAIL {f}")
    metrics = {}
    setups = out["setup_total_s"]
    metrics["setup_s"] = (statistics.median(setups), "s")
    log(f"setup_s: median of {len(setups)} set-ups of all four "
        f"representations: {[round(x, 4) for x in setups]}")
    for rep in REPS:
        steps = out["reps"][rep]["step_s"]
        value, pct = tail(steps)
        metrics[f"step_s.{rep}"] = (statistics.median(steps), "s")
        metrics[f"step_s_tail.{rep}"] = (value, "s")
        log(f"{rep}: {len(steps)} steps, median {statistics.median(steps):.4f} s, "
            f"tail p{pct:.0f} {value:.4f} s ({TAIL_BEYOND} of {len(steps)} "
            f"samples beyond), set-ups {[round(x, 4) for x in out['reps'][rep]['setup_s']]}")
    # Peak memory: one process per representation, holding only it.
    # One malloc arena and fixed mmap/trim thresholds: with per-thread
    # arenas and glibc's adaptive thresholds, which thread allocates first
    # moves the peak by several percent from run to run.
    probe_env = env | {"MALLOC_ARENA_MAX": "1",
                       "MALLOC_MMAP_THRESHOLD_": "65536",
                       "MALLOC_TRIM_THRESHOLD_": "65536"}
    for rep in REPS:
        probe = run_child(["--workload", args.workload, "--seed", str(args.seed),
                           "--ranks", str(ranks), "--mode", "rss", "--rep", rep],
                          probe_env)
        attempted += 1
        if not probe["ok"]:
            failed += 1
            log(f"FAIL rss probe {rep}: step check failed")
        metrics[f"peak_rss_mb.{rep}"] = (probe["peak_rss_mb"], "MiB")
    return failed == 0, attempted, failed, metrics


def per_layer(args, env, ranks) -> tuple[bool, int, int, dict]:
    out_dir = Path(".bench_build") / "out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = run_child(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--ranks", str(ranks),
                     "--mode", "trace", "--out", str(out_dir)], env)
    attempted, failed = out["attempted"], out["failed"]
    correct = failed == 0
    for f in out["failures"]:
        log(f"FAIL {f}")
    trace = out["trace_file"]
    if not trace:
        correct = False
        log("FAIL no trace was written")
    else:
        res = subprocess.run([sys.executable, "tools/validate_trace.py", trace],
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, check=False)
        log(res.stdout.strip())
        correct = correct and res.returncode == 0
    log(f"trace: {trace}\nobs metrics snapshot: {out['metrics_file']}")
    metrics = {}
    reps = out["reps"]
    for rep in REPS:
        r = reps[rep]
        layer = dict(r["layer"])
        layer["obs.trace_overhead"] = (statistics.median(r["step_s_traced"]) /
                                       statistics.median(r["step_s_untraced"]))
        for name, unit in LAYER_TIMED:
            metrics[f"{name}.{rep}"] = (layer[name], unit)
    for name in LAYER_COUNTS:
        values = {rep: reps[rep]["counts"][name] for rep in REPS}
        if len(set(values.values())) != 1:
            correct = False
            log(f"FAIL {name} differs across representations: {values}")
        metrics[name] = (values[REPS[0]], "ratio" if name in RATIO_COUNTS else "count")
    steps = len(reps[REPS[0]]["step_s_traced"])
    log(f"per-layer table ({steps} traced steps per representation; "
        "times are per step, core times per quadrant):")
    log(f"{'metric':34s}" + "".join(f"{rep:>14s}" for rep in REPS))
    for name, unit in LAYER_TIMED:
        log(f"{name + ' [' + unit + ']':34s}" +
            "".join(f"{metrics[f'{name}.{rep}'][0]:14.6g}" for rep in REPS))
    for name in LAYER_COUNTS:
        log(f"{name:34s}{metrics[name][0]:14.6g}")
    return correct, attempted, failed, metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    nproc = os.cpu_count() or 1
    threads = ranks = min(4, nproc)
    env = child_env(threads)
    log(f"host {platform.node()}, nproc {nproc}, pool threads {threads}, "
        f"ranks {ranks}, commit {git_commit()}, source digest {source_digest()}")
    log(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
        f"trace {args.trace}")
    if args.trace:
        correct, attempted, failed, metrics = per_layer(args, env, ranks)
    else:
        correct, attempted, failed, metrics = end_to_end(args, env, ranks)
    log(f"failed/attempted: {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
