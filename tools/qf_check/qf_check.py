#!/usr/bin/env python3
"""qf_check — the concurrency contract checker for qforest.

Checks that Clang Thread Safety annotations cannot express:

  mo-comment             every memory_order_* site needs a `// mo:`
                         justification; full inventory via --mo-inventory
  unnamed-raii           TraceSpan/LockGuard/UniqueLock/ThreadRankScope
                         constructed as a discarded temporary
  guarded-by             access to a QF_GUARDED_BY member without the lock
                         (the no-clang mirror of -Wthread-safety)
  blocking-while-locked  blocking primitive (condvar wait, pop_blocking,
                         wait_idle, parallel_for, join, sleep, collectives)
                         transitively reachable while a lock is held
  lock-order             nested-acquisition graph (DOT via
                         --lock-order-dot); any cycle is an error
  mutable-static         unsynchronized static (plain-bool-flag for bools)
  atomic-ref-bool        std::atomic_ref<bool> over proxy/bool storage
  volatile-sync          volatile integral used as synchronization
  detached-thread        .detach() — library threads must be joined
  system-clock           std::chrono::system_clock; use steady_clock
  sleep-poll             sleep_for / sleep_until inside a loop
  stale-allow            a qf-allow naming an unknown check, or one that
                         silences nothing on its line

The model comes from a stdlib-only token engine (cpp_model.py).
Suppress a finding with `// qf-allow(<check>): reason` on its line;
suppressions are listed in the summary.

Exit status: 1 when any unsuppressed finding remains, else 0.

Examples:
  tools/qf_check/qf_check.py src
  tools/qf_check/qf_check.py --mo-inventory mo.json \\
      --lock-order-dot lock_order.dot src
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks as checks_mod           # noqa: E402
import cpp_model                      # noqa: E402

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


def gather_files(paths):
    files = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            files.extend(sorted(f for f in p.rglob("*")
                                if f.suffix in SOURCE_SUFFIXES))
        else:
            files.append(p)
    return files


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="+", help="directories or files to check")
    ap.add_argument("--checks", default="all",
                    help="comma-separated check names (default: all); "
                         f"known: {', '.join(checks_mod.CHECK_NAMES)}")
    ap.add_argument("--mo-inventory", metavar="PATH",
                    help="write the memory-order inventory JSON here")
    ap.add_argument("--lock-order-dot", metavar="PATH",
                    help="write the nested-acquisition graph (DOT) here")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the per-exemption summary")
    args = ap.parse_args()

    files = gather_files(args.paths)
    if not files:
        print("qf_check: no source files found", file=sys.stderr)
        return 2

    selected = (checks_mod.CHECK_NAMES
                if args.checks == "all" else args.checks.split(","))
    unknown = [c for c in selected if c not in checks_mod.CHECK_NAMES]
    if unknown:
        print(f"qf_check: unknown check(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    model = cpp_model.build_model(files)
    findings, suppressed = checks_mod.run_checks(model, selected)

    findings.sort(key=lambda f: (f.file, f.line, f.check))
    for f in findings:
        print(f"{f.file}:{f.line}: [{f.check}] {f.message}")
    if not args.quiet:
        for f, reason in sorted(suppressed,
                                key=lambda x: (x[0].file, x[0].line)):
            print(f"{f.file}:{f.line}: [{f.check}] suppressed: {reason}")

    if args.mo_inventory:
        inv = checks_mod.mo_inventory(model)
        pathlib.Path(args.mo_inventory).write_text(
            json.dumps(inv, indent=2) + "\n")
        print(f"qf_check: wrote {args.mo_inventory} "
              f"({inv['justified']}/{inv['total']} sites justified)")
    if args.lock_order_dot:
        nodes, edges = checks_mod.lock_order_graph(model)
        pathlib.Path(args.lock_order_dot).write_text(
            checks_mod.lock_order_dot(nodes, edges))
        ncyc = len(checks_mod.find_cycles(nodes, edges))
        print(f"qf_check: wrote {args.lock_order_dot} "
              f"({len(nodes)} lock(s), {len(edges)} edge(s), "
              f"{ncyc} cycle(s))")

    print(f"qf_check: {len(files)} file(s), "
          f"{len(findings)} finding(s), {len(suppressed)} suppressed")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
