#!/usr/bin/env python3
"""Thresholded bench regression gate (stdlib only).

Compares the boost_percent of every SIMD-active record in the current
BENCH_*.json files against the committed baseline and fails (exit 1) when
any matched record regresses by more than --threshold percentage points:

    check_bench_regression.py --baseline bench/baselines/ci_baseline.json \
        --threshold 20 build/bench/BENCH_ablation.json \
        build/bench/BENCH_strong_scaling.json

Records are matched on (bench, rep, phase). Only records whose current
run reports simd_active=true OR gate=true are gated: the non-SIMD
representations and scalar-forced builds measure staging overhead whose
boost hovers around zero and would only add noise, and benches that are
meaningless on the current host (e.g. the strong-scaling overlap boost
on a 1-core runner) mark their records gate=false. A run with no
gateable records (e.g. the scalar-forced CI leg or a non-AVX host)
passes trivially.

The committed baseline holds conservative floors (see the file's note),
so the gate catches real collapses — a batched path silently falling back
to scalar dispatch — without flapping on runner-to-runner variance.
"""

import argparse
import json
import sys


def load_records(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("records", [])


def key_of(rec):
    return (rec.get("bench"), rec.get("rep"), rec.get("phase"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--threshold", type=float, default=20.0,
                    help="max allowed boost regression in percentage points")
    ap.add_argument("current", nargs="+", help="BENCH_*.json files to gate")
    args = ap.parse_args()

    baseline = {key_of(r): r for r in load_records(args.baseline)
                if "boost_percent" in r}
    gated = 0
    skipped = 0
    failures = []
    rows = []
    for path in args.current:
        for rec in load_records(path):
            if "boost_percent" not in rec:
                continue
            if not (rec.get("simd_active", False) or rec.get("gate", False)):
                skipped += 1
                continue
            base = baseline.get(key_of(rec))
            if base is None:
                skipped += 1
                continue
            gated += 1
            regression = base["boost_percent"] - rec["boost_percent"]
            status = "FAIL" if regression > args.threshold else "ok"
            rows.append((status,
                         "/".join(str(k) for k in key_of(rec)),
                         f"{rec['boost_percent']:.1f}",
                         f"{base['boost_percent']:.1f}",
                         f"{regression:+.1f}",
                         f"{args.threshold:.0f}"))
            if regression > args.threshold:
                failures.append(key_of(rec))

    # Measured-vs-floor table, printed on success and failure alike so
    # every CI log shows how much headroom each gated phase has left.
    if rows:
        headers = ("status", "bench/rep/phase", "measured %",
                   "floor %", "regression pt", "limit pt")
        widths = [max(len(h), max(len(r[i]) for r in rows))
                  for i, h in enumerate(headers)]
        def fmt_row(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
        print(fmt_row(headers))
        print(fmt_row(tuple("-" * w for w in widths)))
        for r in rows:
            print(fmt_row(r))

    print(f"gated {gated} record(s), skipped {skipped} "
          f"(ungateable or unmatched)")
    if failures:
        print(f"bench regression gate FAILED for {len(failures)} record(s)",
              file=sys.stderr)
        return 1
    if gated == 0:
        print("no gateable records (scalar build / unsuited host): pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
