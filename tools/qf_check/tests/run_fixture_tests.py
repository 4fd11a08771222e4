#!/usr/bin/env python3
"""Golden test for qf_check itself (registered in ctest).

Modes:
  run_fixture_tests.py              diff fixture findings vs expected.txt
  run_fixture_tests.py --update     regenerate expected.txt
  run_fixture_tests.py --src DIR    run qf_check over the real tree: must
                                    be clean (exit 0), the memory-order
                                    inventory fully justified, and the
                                    lock-order graph cycle-free

The golden stores `file:line: [check]` prefixes only, so check messages
can be reworded without touching it; locations and check names cannot.
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
QF_CHECK = HERE.parent / "qf_check.py"

# A --checks subset judges only its own checks' suppressions: with
# stale-allow alone, the one naming an unknown check is all that is left.
SUBSET_CHECKS = "stale-allow"
SUBSET_WANT = ["fixture_stale_allow.cpp:13: [stale-allow]"]

_LINE_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<check>[\w-]+)\]"
    r"(?P<sup> suppressed)?")


def run_qf_check(args):
    proc = subprocess.run(
        [sys.executable, str(QF_CHECK), *args],
        capture_output=True, text=True)
    return proc


def normalized_findings(stdout):
    out = []
    for line in stdout.splitlines():
        m = _LINE_RE.match(line)
        if m:
            sup = " suppressed" if m.group("sup") else ""
            out.append(f"{pathlib.Path(m.group('path')).name}:"
                       f"{m.group('line')}: [{m.group('check')}]{sup}")
    return out


def fixture_mode(update):
    proc = run_qf_check([str(HERE)])
    got = normalized_findings(proc.stdout)
    if update:
        header = [l for l in (HERE / "expected.txt").read_text().splitlines()
                  if l.startswith("#")]
        (HERE / "expected.txt").write_text(
            "\n".join(header + got) + "\n")
        print(f"run_fixture_tests: wrote {len(got)} entries")
        return 0
    want = [l for l in (HERE / "expected.txt").read_text().splitlines()
            if l and not l.startswith("#")]
    if proc.returncode != 1:
        print(f"FAIL: expected exit 1 on fixtures, got {proc.returncode}\n"
              f"{proc.stdout}{proc.stderr}")
        return 1
    if got != want:
        print("FAIL: fixture findings differ from expected.txt")
        for line in sorted(set(want) - set(got)):
            print(f"  missing: {line}")
        for line in sorted(set(got) - set(want)):
            print(f"  extra:   {line}")
        return 1
    sub = normalized_findings(
        run_qf_check(["--checks", SUBSET_CHECKS, str(HERE)]).stdout)
    if sub != SUBSET_WANT:
        print(f"FAIL: --checks {SUBSET_CHECKS} reported {sub}, "
              f"want {SUBSET_WANT}")
        return 1
    print(f"OK: {len(got)} expected finding(s)/suppression(s) matched")
    return 0


def src_mode(src):
    with tempfile.TemporaryDirectory() as tmp:
        mo = pathlib.Path(tmp) / "mo_inventory.json"
        dot = pathlib.Path(tmp) / "lock_order.dot"
        proc = run_qf_check(["--mo-inventory", str(mo),
                             "--lock-order-dot", str(dot), src])
        if proc.returncode != 0:
            print(f"FAIL: qf_check reports findings on {src}:\n"
                  f"{proc.stdout}{proc.stderr}")
            return 1
        inv = json.loads(mo.read_text())
        if inv["justified"] != inv["total"]:
            print(f"FAIL: {inv['total'] - inv['justified']} memory-order "
                  "site(s) without `// mo:` justification")
            return 1
        m = re.search(r"(\d+) cycle\(s\)", proc.stdout)
        if not m or m.group(1) != "0":
            print(f"FAIL: lock-order graph has cycles:\n{dot.read_text()}")
            return 1
    print(f"OK: {src} clean, {inv['total']} mo site(s) justified, "
          "lock-order graph acyclic")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--update", action="store_true")
    ap.add_argument("--src", metavar="DIR",
                    help="check the real tree instead of the fixtures")
    args = ap.parse_args()
    if args.src:
        return src_mode(args.src)
    return fixture_mode(args.update)


if __name__ == "__main__":
    sys.exit(main())
