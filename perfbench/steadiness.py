#!/usr/bin/env python3
"""Repeated, alternating runs of the benchmark on two checkouts.

    python3 perfbench/steadiness.py --a PARENT_DIR --b CHANGE_DIR \
        --seeds 101-110 [--workloads amr_front,solver_static,paper_ops] \
        [--json OUT.json]
    python3 perfbench/steadiness.py --report OUT.json   # re-render a record

Each checkout must hold perfbench/ and BENCHMARK.json. For every workload
and seed, both checkouts run `perfbench/run.py --trace 0` back to back;
which one goes first alternates with the seed, so slow drift of the host
hits both sides alike. Reported per workload and end-to-end metric: each
side's median and quartiles over the seeds, the spread (interquartile
distance over the median), and the shift of B's median against A's —
both to be read against the metric's bound in BENCHMARK.json: a spread
within the bound (setup_s exempt) and a shift within the bound make the
pair "within bound"; a spread below a third of the bound is the tuning
target. Failed operations are summed per side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds_of(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, check=False)
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-2000:])
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {res.returncode}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - t0
    return out


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def report_of(runs: list[dict], spec: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == w]
        rows = {}
        for name, bound in bounds.items():
            per = {}
            for side in ("a", "b"):
                vals = [r["metrics"][name] for r in mine if r["side"] == side]
                per[side] = summary(vals) | {"values": vals}
            sign = 1 if better[name] == "lower" else -1
            shift = sign * (per["b"]["median"] / per["a"]["median"] - 1)
            spread = max(per["a"]["spread"], per["b"]["spread"])
            rows[name] = per | {
                "bound": bound, "worse_by": shift,
                "within_bound": shift <= bound and
                                (spread <= bound or name == "setup_s"),
                "below_third": spread < bound / 3}
        report[w] = {
            "metrics": rows,
            "failed": {s: sum(r["failed"] for r in mine if r["side"] == s)
                       for s in ("a", "b")},
            "attempted": {s: sum(r["attempted"] for r in mine if r["side"] == s)
                          for s in ("a", "b")},
            "wall_s": statistics.median(r["wall_s"] for r in mine)}
    return report


def print_report(report: dict) -> None:
    for w, rep in report.items():
        print(f"\n{w}: failed/attempted a {rep['failed']['a']}/{rep['attempted']['a']}, "
              f"b {rep['failed']['b']}/{rep['attempted']['b']}; "
              f"median wall time of a run {rep['wall_s']:.1f} s")
        print("| metric | bound | a median [q1, q3] | a spread | b median [q1, q3] "
              "| b spread | b worse by | within bound | spread < bound/3 |")
        print("|---|---|---|---|---|---|---|---|---|")
        for name, r in rep["metrics"].items():
            a, b = r["a"], r["b"]
            print(f"| {name} | {r['bound']} | {a['median']:.4g} [{a['q1']:.4g}, "
                  f"{a['q3']:.4g}] | {a['spread']:.3f} | {b['median']:.4g} "
                  f"[{b['q1']:.4g}, {b['q3']:.4g}] | {b['spread']:.3f} | "
                  f"{r['worse_by']:+.3f} | {'yes' if r['within_bound'] else 'NO'} | "
                  f"{'yes' if r['below_third'] else 'no'} |")


def write_record(path: Path, seeds: list[int], runs: list[dict]) -> None:
    """The raw runs, one per line; --report derives the tables from them."""
    lines = ",\n".join(json.dumps(r) for r in runs)
    path.write_text(f'{{"seeds": {json.dumps(seeds)}, "runs": [\n{lines}\n]}}\n')


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, help="parent checkout")
    ap.add_argument("--b", type=Path, help="changed checkout")
    ap.add_argument("--seeds", default="")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", type=Path, help="write the record here")
    ap.add_argument("--report", type=Path, help="re-render a written record")
    ap.add_argument("--spec", type=Path, default=Path("BENCHMARK.json"))
    args = ap.parse_args()

    if args.report:
        record = json.loads(args.report.read_text())
        print_report(report_of(record["runs"], json.loads(args.spec.read_text())))
        return
    if not (args.a and args.b and args.seeds):
        ap.error("--a, --b and --seeds are required unless --report is given")
    spec = json.loads((args.b / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = seeds_of(args.seeds)
    sides = {"a": args.a, "b": args.b}
    runs = []
    for w in workloads:
        for i, seed in enumerate(seeds):
            order = ["a", "b"] if i % 2 == 0 else ["b", "a"]
            for side in order:
                out = run_once(sides[side], w, seed, spec["run_seconds"])
                runs.append({"workload": w, "seed": seed, "side": side,
                             "wall_s": out["wall_s"], "correct": out["correct"],
                             "attempted": out["attempted"],
                             "failed": out["failed"],
                             "metrics": {k: v["value"]
                                         for k, v in out["metrics"].items()}})
                print(f"{w} seed {seed} {side}: {out['wall_s']:.1f} s, "
                      f"failed {out['failed']}/{out['attempted']}", flush=True)
    print_report(report_of(runs, spec))
    if args.json:
        write_record(args.json, seeds, runs)


if __name__ == "__main__":
    main()
