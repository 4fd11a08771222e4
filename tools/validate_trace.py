#!/usr/bin/env python3
"""Validate a qforest Chrome trace-event JSON file (obs/trace.hpp output).

Checks, in order:

1. Schema: the document is an object with a ``traceEvents`` list; every
   entry is an object with a string ``ph``; every complete ("X") event
   carries string ``name``/``cat``, numeric ``ts >= 0`` and ``dur >= 0``,
   and integer ``pid``/``tid``; ``args``, when present, is an object.
2. Ordering: the non-metadata events appear sorted by ascending ``ts``
   (the exporter's contract, which Perfetto relies on).
3. Nesting: per (pid, tid) lane, complete events form a proper stack —
   any two spans are either disjoint or one contains the other. Partial
   overlap means a span "leaked" across an enclosing span's end and the
   trace would render misleadingly.

Overlap ablation checks (for bench_strong_scaling traces, where
``ghost.interior`` and ``ghost.inflight`` spans carry an ``overlap`` arg):

``--require-overlap``   at least one interior span with overlap=1 must
                        intersect an inflight span on the same lane
                        (comm/compute overlap actually happened).
``--require-disjoint``  no interior span with overlap=0 may intersect any
                        inflight span on its lane (the overlap=false
                        ordering serializes compute after the drain).

Exit status 0 on success, 1 on any violation. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys

# Timestamps are microseconds with 3 decimals (ns resolution); allow for
# float formatting slop when testing containment.
EPS_US = 0.0005


def fail(msg: str) -> None:
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_events(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot load JSON: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        fail(f"{path}: document must be an object with a 'traceEvents' list")
    return doc["traceEvents"]


def check_schema(events: list[dict]) -> list[dict]:
    """Returns the complete ("X") events after validating every entry."""
    complete = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"traceEvents[{i}]: not an object")
        ph = ev.get("ph")
        if not isinstance(ph, str):
            fail(f"traceEvents[{i}]: missing string 'ph'")
        if "args" in ev and not isinstance(ev["args"], dict):
            fail(f"traceEvents[{i}]: 'args' must be an object")
        if ph == "M":
            continue
        if ph != "X":
            fail(f"traceEvents[{i}]: unexpected phase '{ph}' "
                 "(exporter only emits M and X)")
        for key in ("name", "cat"):
            if not isinstance(ev.get(key), str) or not ev[key]:
                fail(f"traceEvents[{i}]: missing string '{key}'")
        for key in ("ts", "dur"):
            v = ev.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                fail(f"traceEvents[{i}] ({ev['name']}): "
                     f"'{key}' must be a number >= 0, got {v!r}")
        for key in ("pid", "tid"):
            v = ev.get(key)
            if not isinstance(v, int) or isinstance(v, bool):
                fail(f"traceEvents[{i}] ({ev['name']}): "
                     f"'{key}' must be an integer, got {v!r}")
        complete.append(ev)
    return complete


def check_order(complete: list[dict]) -> None:
    prev = -1.0
    for ev in complete:
        if ev["ts"] < prev - EPS_US:
            fail(f"event '{ev['name']}' at ts={ev['ts']} breaks the "
                 f"ascending-ts order (previous ts={prev})")
        prev = ev["ts"]


def lanes(complete: list[dict]) -> dict[tuple, list[dict]]:
    by_lane: dict[tuple, list[dict]] = {}
    for ev in complete:
        by_lane.setdefault((ev["pid"], ev["tid"]), []).append(ev)
    return by_lane


def check_nesting(by_lane: dict[tuple, list[dict]]) -> None:
    for (pid, tid), evs in sorted(by_lane.items()):
        # Containment-friendly order: by start, longest first at ties.
        evs = sorted(evs, key=lambda e: (e["ts"], -e["dur"]))
        stack: list[dict] = []  # currently open spans, innermost last
        for ev in evs:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and start >= stack[-1]["ts"] + stack[-1]["dur"] - EPS_US:
                stack.pop()
            if stack:
                parent_end = stack[-1]["ts"] + stack[-1]["dur"]
                if end > parent_end + EPS_US:
                    fail(f"lane pid={pid} tid={tid}: span '{ev['name']}' "
                         f"[{start}, {end}] partially overlaps enclosing "
                         f"'{stack[-1]['name']}' ending at {parent_end}")
            stack.append(ev)


def intersects(a: dict, b: dict) -> bool:
    a0, a1 = a["ts"], a["ts"] + a["dur"]
    b0, b1 = b["ts"], b["ts"] + b["dur"]
    return min(a1, b1) - max(a0, b0) > EPS_US


def check_overlap_ablation(by_lane: dict[tuple, list[dict]],
                           require_overlap: bool,
                           require_disjoint: bool) -> None:
    saw_overlapping_pair = False
    saw_overlap_interior = False
    saw_disjoint_interior = False
    for (pid, tid), evs in sorted(by_lane.items()):
        inflight = [e for e in evs if e["name"] == "ghost.inflight"]
        for ev in evs:
            if ev["name"] != "ghost.interior":
                continue
            mode = ev.get("args", {}).get("overlap")
            hit = any(intersects(ev, f) for f in inflight)
            if mode == 1:
                saw_overlap_interior = True
                saw_overlapping_pair = saw_overlapping_pair or hit
            elif mode == 0:
                saw_disjoint_interior = True
                if hit:
                    fail(f"lane pid={pid} tid={tid}: interior span with "
                         "overlap=0 intersects an in-flight exchange span "
                         "(the no-overlap ordering must drain first)")
    if require_overlap:
        if not saw_overlap_interior:
            fail("--require-overlap: no ghost.interior span with overlap=1 "
                 "in the trace")
        if not saw_overlapping_pair:
            fail("--require-overlap: no overlap=1 interior span intersects "
                 "a ghost.inflight span (comm/compute overlap not visible)")
    if require_disjoint and not saw_disjoint_interior:
        fail("--require-disjoint: no ghost.interior span with overlap=0 "
             "in the trace")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace-event JSON file")
    ap.add_argument("--min-events", type=int, default=1,
                    help="minimum number of complete events (default 1)")
    ap.add_argument("--require-overlap", action="store_true",
                    help="demand an overlap=1 interior span intersecting an "
                         "in-flight exchange span")
    ap.add_argument("--require-disjoint", action="store_true",
                    help="demand overlap=0 interior spans exist (their "
                         "disjointness from inflight is always enforced)")
    args = ap.parse_args()

    events = load_events(args.trace)
    complete = check_schema(events)
    if len(complete) < args.min_events:
        fail(f"only {len(complete)} complete event(s), "
             f"expected >= {args.min_events}")
    check_order(complete)
    by_lane = lanes(complete)
    check_nesting(by_lane)
    check_overlap_ablation(by_lane, args.require_overlap,
                           args.require_disjoint)
    names = {e["name"] for e in complete}
    print(f"validate_trace: OK: {len(complete)} events, "
          f"{len(by_lane)} lanes, {len(names)} distinct span names")


if __name__ == "__main__":
    main()
