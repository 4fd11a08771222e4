"""Concurrency contract checks over the token Model (cpp_model.py).

Each check yields Finding(file, line, check, message) and stays pure;
run_checks() applies the `// qf-allow(<check>): reason` suppressions on
the finding's line and reports stale ones as `stale-allow`.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

from cpp_model import (AccessEvent, AcquireEvent, CallEvent, Model, ScopeEnd)


@dataclasses.dataclass
class Finding:
    file: str
    line: int
    check: str
    message: str


# ---------------------------------------------------------------------------
# memory-order audit
# ---------------------------------------------------------------------------

def check_mo_comment(model: Model):
    for s in model.mo_sites:
        if not s.justified:
            yield Finding(
                s.file, s.line, "mo-comment",
                f"memory_order_{s.order} without a `// mo:` justification "
                "comment (same line or the contiguous comment block above); "
                f"site: `{s.context}`")


def mo_inventory(model: Model) -> dict:
    """The CI artifact: every memory_order site, justified or not."""
    sites = [dataclasses.asdict(s) for s in model.mo_sites]
    orders = {}
    for s in model.mo_sites:
        orders[s.order] = orders.get(s.order, 0) + 1
    return {
        "total": len(sites),
        "justified": sum(1 for s in model.mo_sites if s.justified),
        "by_order": dict(sorted(orders.items())),
        "sites": sites,
    }


# ---------------------------------------------------------------------------
# unnamed RAII temporaries
# ---------------------------------------------------------------------------

def check_unnamed_raii(model: Model):
    for t in model.raii_temps:
        yield Finding(
            t.file, t.line, "unnamed-raii",
            f"{t.type_name} constructed as a discarded temporary — it is "
            "destroyed at the end of the full expression, so the scope it "
            "was meant to cover is never protected; name the object")


# ---------------------------------------------------------------------------
# mutable-static
# ---------------------------------------------------------------------------

# Token-joined declarations carry spaces around `::`; allow both spellings.
_ALLOWED_TYPE_RE = re.compile(
    r"std\s*::\s*(?:atomic\b|mutex\b|shared_mutex\b|once_flag\b"
    r"|condition_variable\b|latch\b|barrier\b)"
    r"|\bThreadPool\b|\bMutex\b|\bCondVar\b"
    r"|obs\s*::\s*(?:Counter\b|Histogram\b)|\bCounter\b|\bHistogram\b"
)
_QUALIFIER_ALLOW_RE = re.compile(r"\b(constexpr|thread_local)\b")


def _static_is_const(decl: str) -> bool:
    if "*" in decl:
        return "* const" in decl or "*const" in decl
    return re.match(r"^const\b", decl) is not None or " const " in f" {decl} "


def check_mutable_static(model: Model):
    for s in model.statics:
        if (_QUALIFIER_ALLOW_RE.search(s.decl)
                or _ALLOWED_TYPE_RE.search(s.decl)
                or _static_is_const(s.decl)):
            continue
        if s.is_bool:
            yield Finding(
                s.file, s.line, "plain-bool-flag",
                f"mutable static bool `{s.decl}` — the classic racy flag; "
                "use std::atomic<bool>")
        else:
            yield Finding(
                s.file, s.line, "mutable-static",
                f"mutable static `{s.decl}` without synchronization; use "
                "std::atomic / a mutex / thread_local, or make it const")


# ---------------------------------------------------------------------------
# line-pattern checks over the comment- and string-stripped text
# ---------------------------------------------------------------------------

_LINE_PATTERNS = {
    "atomic-ref-bool": (
        re.compile(r"std::atomic_ref\s*<\s*bool\s*>"),
        "std::atomic_ref<bool> — vector<bool> elements are proxies and "
        "bool storage invites it; use std::uint8_t storage"),
    "volatile-sync": (
        re.compile(r"\bvolatile\s+(?:std::)?"
                   r"(?:bool|int|unsigned|long|size_t|u?int\d+_t)\b"),
        "volatile integral used where synchronization is needed; "
        "use std::atomic"),
    "detached-thread": (
        re.compile(r"\.\s*detach\s*\(\s*\)"),
        "detached thread in library code — join it (or hand it to the "
        "pool / rank runtime) so shutdown stays deterministic"),
    "system-clock": (
        re.compile(r"std::chrono::system_clock\b"),
        "std::chrono::system_clock — the wall clock is not monotonic; use "
        "std::chrono::steady_clock for durations and timestamps"),
}


def _line_check(name):
    pattern, message = _LINE_PATTERNS[name]

    def check(model: Model):
        for file, lines in model.code.items():
            for lineno, code in enumerate(lines, start=1):
                if pattern.search(code):
                    yield Finding(file, lineno, name, message)
    return check


_SLEEP_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")
_LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(|\bdo\s*(?:\{|$)")
_DO_WHILE_TAIL_RE = re.compile(r"^\s*\}\s*while\s*\(")


def check_sleep_poll(model: Model):
    """sleep_for / sleep_until inside a loop body or on a loop head.

    Approximate loop tracking: brace depth plus the depths at which loop
    bodies opened. A `for`/`while`/`do` head arms `pending`; the next `{`
    (from the head onward, so an earlier `if (…) {` on the same line is
    not misattributed) turns it into a loop scope, and a braceless
    single-statement body disarms it at the first statement-ending line
    after the head. A do-while's `} while (…);` tail is not a head."""
    for file, lines in model.code.items():
        depth = 0
        loop_depths = []
        pending = False
        pending_line = 0
        for lineno, code in enumerate(lines, start=1):
            m_loop = (None if _DO_WHILE_TAIL_RE.match(code)
                      else _LOOP_HEAD_RE.search(code))
            if _SLEEP_RE.search(code) and (loop_depths or pending or m_loop):
                yield Finding(
                    file, lineno, "sleep-poll",
                    "sleep inside a loop — a sleep-poll retry loop; wait on "
                    "a condition variable (Mailbox::pop_blocking) or a task "
                    "future instead")
            loop_pos = m_loop.start() if m_loop else None
            for i, ch in enumerate(code):
                if loop_pos is not None and i >= loop_pos:
                    pending, pending_line, loop_pos = True, lineno, None
                if ch == "{":
                    depth += 1
                    if pending:
                        loop_depths.append(depth)
                        pending = False
                elif ch == "}":
                    if loop_depths and loop_depths[-1] == depth:
                        loop_depths.pop()
                    depth = max(0, depth - 1)
            if loop_pos is not None:    # head after the last brace
                pending, pending_line = True, lineno
            if (pending and lineno > pending_line
                    and ";" in code and "{" not in code):
                pending = False         # braceless body ended


# ---------------------------------------------------------------------------
# held-lock walking (shared by guarded-by / blocking / lock-order)
# ---------------------------------------------------------------------------

def _walk_held(fn):
    """Yield (event, held) where held is the list of AcquireEvents alive
    at that point (function QF_REQUIRES first, as pseudo-acquisitions)."""
    held = [AcquireEvent(line=fn.line, var=f"<requires:{m}>", mutex=m,
                         depth=0, kind="requires")
            for m in sorted(fn.requires)]
    for ev in fn.events:
        if isinstance(ev, ScopeEnd):
            held = [h for h in held if h.depth < ev.depth]
            continue
        yield ev, held
        if isinstance(ev, AcquireEvent):
            held = held + [ev]


# ---------------------------------------------------------------------------
# guarded-by
# ---------------------------------------------------------------------------

def check_guarded_by(model: Model):
    guard_map = model.guarded_names()
    if not guard_map:
        return
    decl_lines = {(g.file, g.line) for g in model.guarded}
    guarded_classes = {}
    for g in model.guarded:
        guarded_classes.setdefault(g.name, set()).add(g.cls)
    # A member name also declared by an *unguarded* class is ambiguous to
    # a typeless engine: check it only inside the guarded class's own
    # methods (the Clang leg covers the qualified accesses precisely).
    ambiguous = {name for (cls, name) in model.members
                 if name in guard_map and cls not in guarded_classes[name]}
    for fn in model.functions:
        if fn.is_ctor_dtor:
            continue            # construction/teardown is single-threaded
        reported = set()
        for ev, held in _walk_held(fn):
            if not isinstance(ev, AccessEvent):
                continue
            if (fn.file, ev.line) in decl_lines:
                continue
            # Scope the name match: the access must be in the guarded
            # class's own methods or in the file that declares it — a
            # typeless engine cannot follow cross-file object types.
            guards = {g.guard for g in model.guarded
                      if g.name == ev.member
                      and (g.cls == fn.cls or g.file == fn.file)}
            if not guards:
                continue
            if (ev.member in ambiguous
                    and fn.cls not in guarded_classes[ev.member]):
                continue
            held_names = {h.mutex for h in held}
            if guards & held_names:
                continue
            key = (ev.line, ev.member)
            if key in reported:
                continue
            reported.add(key)
            want = " or ".join(sorted(guards))
            yield Finding(
                fn.file, ev.line, "guarded-by",
                f"`{ev.member}` is QF_GUARDED_BY({want}) but accessed in "
                f"{fn.qualname} without holding it "
                f"(held: {sorted(held_names) or 'none'})")


# ---------------------------------------------------------------------------
# blocking-while-locked
# ---------------------------------------------------------------------------

# Primitives that can park the calling thread. `wait` doubles as the
# condvar wait, exempted below when it drops the only held lock.
BLOCKING_PRIMITIVES = {
    "sleep_for", "sleep_until", "join", "wait", "wait_all", "wait_idle",
    "parallel_for", "parallel_for_grain", "barrier", "recv", "pop_blocking",
    "exscan", "allgather", "alltoallv", "run_ranks",
}


def _callees_by_name(model: Model):
    by_name = {}
    for fn in model.functions:
        by_name.setdefault(fn.name, []).append(fn)
    return by_name


def _may_block_names(model: Model):
    """Transitive closure: function names that can reach a blocking
    primitive. Resolution is by unqualified name, which is
    conservative in the right direction for a checker."""
    by_name = _callees_by_name(model)
    may_block = set(BLOCKING_PRIMITIVES)
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            if fn.name in may_block:
                continue
            for ev in fn.events:
                if isinstance(ev, CallEvent) and ev.callee in may_block:
                    may_block.add(fn.name)
                    changed = True
                    break
    return may_block, by_name


def check_blocking_while_locked(model: Model):
    may_block, _ = _may_block_names(model)
    for fn in model.functions:
        for ev, held in _walk_held(fn):
            if not isinstance(ev, CallEvent) or not held:
                continue
            if ev.callee not in may_block:
                continue
            # Condvar exemption: `cv.wait(lk)` atomically drops lk; legal
            # when lk's mutex is the *only* capability held.
            if ev.callee == "wait" and len(ev.args) >= 1:
                lockvars = {h.var: h.mutex for h in held}
                arg_ids = re.findall(r"[A-Za-z_]\w*", ev.args[0])
                dropped = lockvars.get(arg_ids[-1]) if arg_ids else None
                if dropped is not None:
                    if all(h.mutex == dropped for h in held):
                        continue
            held_names = sorted({h.mutex for h in held})
            yield Finding(
                fn.file, ev.line, "blocking-while-locked",
                f"{fn.qualname} calls blocking `{ev.callee}` while holding "
                f"{held_names} — a blocked holder stalls (or deadlocks) "
                "every other acquirer; drop the lock first")


# ---------------------------------------------------------------------------
# lock-order extraction
# ---------------------------------------------------------------------------

def _node(file: str, mutex: str) -> str:
    return f"{pathlib.Path(file).name}:{mutex}"


def _may_acquire(model: Model):
    """fn.name -> set of (file, mutex) it may acquire, transitively."""
    by_name = _callees_by_name(model)
    acq = {}
    for fn in model.functions:
        acq[fn.name] = acq.get(fn.name, set())
        for ev in fn.events:
            if isinstance(ev, AcquireEvent):
                acq[fn.name].add((fn.file, ev.mutex))
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            mine = acq[fn.name]
            for ev in fn.events:
                if isinstance(ev, CallEvent) and ev.callee in acq:
                    extra = acq[ev.callee] - mine
                    if extra:
                        mine |= extra
                        changed = True
    return acq


def lock_order_graph(model: Model):
    """Return (nodes, edges) where edges maps (a, b) -> [(file, line), ...]
    meaning b was (possibly transitively) acquired while a was held."""
    acq = _may_acquire(model)
    nodes = set()
    edges = {}

    def add_edge(a, b, file, line):
        if a == b:
            return
        nodes.add(a)
        nodes.add(b)
        edges.setdefault((a, b), []).append((file, line))

    for fn in model.functions:
        for ev, held in _walk_held(fn):
            if isinstance(ev, AcquireEvent):
                nodes.add(_node(fn.file, ev.mutex))
                for h in held:
                    add_edge(_node(fn.file, h.mutex),
                             _node(fn.file, ev.mutex), fn.file, ev.line)
            elif isinstance(ev, CallEvent) and held:
                for cfile, cmutex in acq.get(ev.callee, ()):
                    for h in held:
                        add_edge(_node(fn.file, h.mutex),
                                 _node(cfile, cmutex), fn.file, ev.line)
    return nodes, edges


def lock_order_dot(nodes, edges) -> str:
    out = ["digraph lock_order {"]
    out.append('  // a -> b: b acquired while a held; cycle = deadlock risk')
    for n in sorted(nodes):
        out.append(f'  "{n}";')
    for (a, b), sites in sorted(edges.items()):
        file, line = sites[0]
        label = f"{pathlib.Path(file).name}:{line}"
        if len(sites) > 1:
            label += f" (+{len(sites) - 1})"
        out.append(f'  "{a}" -> "{b}" [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def find_cycles(nodes, edges):
    """All elementary cycles found by DFS (one per back edge)."""
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, []).append(b)
    cycles = []
    state = {}            # node -> 'active' | 'done'
    stack = []

    def dfs(u):
        state[u] = "active"
        stack.append(u)
        for v in adj.get(u, ()):
            if state.get(v) == "active":
                cycles.append(stack[stack.index(v):] + [v])
            elif v not in state:
                dfs(v)
        stack.pop()
        state[u] = "done"

    for n in sorted(nodes):
        if n not in state:
            dfs(n)
    return cycles


def check_lock_order(model: Model):
    nodes, edges = lock_order_graph(model)
    for cyc in find_cycles(nodes, edges):
        first = edges.get((cyc[0], cyc[1])) or [("<unknown>", 0)]
        file, line = first[0]
        yield Finding(
            file, line, "lock-order-cycle",
            "lock acquisition cycle " + " -> ".join(cyc) +
            " — two threads taking the ring from different entry points "
            "deadlock; impose one order (see ARCHITECTURE.md hierarchy)")


ALL_CHECKS = {
    "mo-comment": check_mo_comment,
    "unnamed-raii": check_unnamed_raii,
    "mutable-static": check_mutable_static,
    **{name: _line_check(name) for name in _LINE_PATTERNS},
    "sleep-poll": check_sleep_poll,
    "guarded-by": check_guarded_by,
    "blocking-while-locked": check_blocking_while_locked,
    "lock-order": check_lock_order,
}

# stale-allow judges the suppressions themselves (see run_checks).
CHECK_NAMES = sorted([*ALL_CHECKS, "stale-allow"])

# Suppression comments may name either the check or the finding label
# (mutable-static also emits plain-bool-flag findings).
CHECK_OF_LABEL = {**{name: name for name in CHECK_NAMES},
                  "plain-bool-flag": "mutable-static",
                  "lock-order-cycle": "lock-order"}


def run_checks(model: Model, selected):
    """Run the selected checks and apply the suppressions.

    Returns (findings, [(suppressed finding, reason)]). With stale-allow
    selected, a suppression is itself a finding when it names no known
    check, or names a selected check and silences nothing on its line;
    suppressions of checks that did not run are not judged."""
    findings = []
    suppressed = []
    used = set()
    for name in selected:
        if name == "stale-allow":
            continue
        for f in ALL_CHECKS[name](model):
            sup = model.suppressions.get((f.file, f.line))
            if sup and CHECK_OF_LABEL.get(sup[0]) == name:
                suppressed.append((f, sup[1]))
                used.add((f.file, f.line))
            else:
                findings.append(f)
    if "stale-allow" in selected:
        for (file, line), (label, _) in model.suppressions.items():
            check = CHECK_OF_LABEL.get(label)
            if check is None:
                findings.append(Finding(
                    file, line, "stale-allow",
                    f"qf-allow({label}) names no known check; known: "
                    f"{', '.join(sorted(CHECK_OF_LABEL))}"))
            elif check in selected and (file, line) not in used:
                findings.append(Finding(
                    file, line, "stale-allow",
                    f"qf-allow({label}) suppresses nothing on this line — "
                    "the finding is gone; delete the comment"))
    return findings, suppressed
