"""Token-level C++ model extraction for qf_check (stdlib only).

A hand-rolled lexer plus a brace-tracking scanner that recovers just
enough structure for the concurrency contract checks — function bodies
with their ordered lock/call/member-access events, class members
annotated QF_GUARDED_BY, QF_REQUIRES clauses, memory_order sites,
statement-level RAII temporaries, static declarations and the
comment- and string-stripped text of every line. It deliberately
understands a *disciplined* dialect of C++ (the one this repo writes:
qf::Mutex/LockGuard/UniqueLock, scoped locks only, no goto) rather than
the whole language.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
from typing import Optional

# ---------------------------------------------------------------------------
# Model dataclasses
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MoSite:
    """One memory_order_* occurrence."""
    file: str
    line: int
    order: str          # e.g. "relaxed", "acquire"
    justified: bool     # a `// mo:` comment covers it
    context: str        # the stripped source line


@dataclasses.dataclass
class RaiiTemp:
    """A named-RAII type constructed as a discarded temporary."""
    file: str
    line: int
    type_name: str


@dataclasses.dataclass
class StaticDecl:
    """A namespace- or function-scope static variable declaration."""
    file: str
    line: int
    decl: str           # declaration text up to the initializer
    is_bool: bool


@dataclasses.dataclass
class GuardedMember:
    """A class member declared QF_GUARDED_BY(guard)."""
    cls: str
    name: str
    guard: str          # canonical guard name (last `.`/`->`/`::` component)
    file: str
    line: int


@dataclasses.dataclass
class AcquireEvent:
    """A scoped lock constructed in a function body."""
    line: int
    var: str            # the lock variable name ('' for unnamed)
    mutex: str          # canonical mutex name (last component of arg 1)
    depth: int          # brace depth at acquisition (for scope-end release)
    kind: str           # 'guard' | 'unique'


@dataclasses.dataclass
class CallEvent:
    """A call site inside a function body."""
    line: int
    callee: str         # last name component, e.g. 'wait', 'pop_blocking'
    args: list          # top-level argument token strings
    depth: int


@dataclasses.dataclass
class AccessEvent:
    """A read or write of a (possibly guarded) member name."""
    line: int
    member: str
    depth: int


@dataclasses.dataclass
class ScopeEnd:
    """A closing brace: locks acquired at >= depth die here."""
    line: int
    depth: int


@dataclasses.dataclass
class Function:
    """One function definition with its ordered body events."""
    qualname: str       # 'ThreadPool::submit', 'counter', ...
    cls: Optional[str]  # enclosing/qualifying class name or None
    name: str           # unqualified name
    file: str
    line: int
    events: list = dataclasses.field(default_factory=list)
    requires: set = dataclasses.field(default_factory=set)
    is_ctor_dtor: bool = False


@dataclasses.dataclass
class Model:
    # file -> its lines with comments and string/char literals blanked
    code: dict = dataclasses.field(default_factory=dict)
    functions: list = dataclasses.field(default_factory=list)
    guarded: list = dataclasses.field(default_factory=list)
    mo_sites: list = dataclasses.field(default_factory=list)
    raii_temps: list = dataclasses.field(default_factory=list)
    statics: list = dataclasses.field(default_factory=list)
    # every (cls, member) seen, guarded or not — used to recognize
    # same-named members of *unguarded* classes (name collisions)
    members: set = dataclasses.field(default_factory=set)
    # (file, line) -> (check, reason) from `// qf-allow(check): reason`
    suppressions: dict = dataclasses.field(default_factory=dict)

    def guarded_names(self) -> dict:
        """member name -> set of guard names (over every class)."""
        out = {}
        for g in self.guarded:
            out.setdefault(g.name, set()).add(g.guard)
        return out


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Tok:
    text: str
    line: int


_TOKEN_RE = re.compile(
    r"""
      (?P<id>[A-Za-z_]\w*)
    | (?P<num>\.?\d[\w.+-]*)
    | (?P<punct>::|->|\+\+|--|<<=|>>=|<=|>=|==|!=|&&|\|\||[-+*/%&|^!<>=]=|<<|>>
        |[{}()\[\];,.<>=*&!?:~%^|/+-])
    """,
    re.VERBOSE,
)


def canonical(expr: str) -> str:
    """Last identifier component of a lock/guard expression.

    `reg.mutex` -> `mutex`, `state->mutex` -> `mutex`,
    `pool->mutex_` -> `mutex_`, `mutex_` -> `mutex_`.
    """
    ids = re.findall(r"[A-Za-z_]\w*", expr)
    return ids[-1] if ids else expr.strip()


def strip_strings_and_comments(text: str):
    """Return (code_text, comments) where comments is [(line, text)] and
    code_text has comments/strings/chars blanked (newlines preserved)."""
    out = []
    comments = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            out.append(c)
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append((line, text[i:j]))
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            chunk = text[i:j]
            for off, part in enumerate(chunk.split("\n")):
                comments.append((line + off, part))
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            line += chunk.count("\n")
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            chunk = text[i:j]
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if chunk.endswith(quote) and j - i > 1 else ""))
            line += chunk.count("\n")
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out), comments


def tokenize(code: str) -> list:
    toks = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        toks.append(Tok(m.group(0), line))
    return toks


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

_LOCK_TYPES = {
    "LockGuard": "guard",
    "UniqueLock": "unique",
    "lock_guard": "guard",        # std::lock_guard<...>
    "unique_lock": "unique",
    "scoped_lock": "guard",
}

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "alignas",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast", "new",
    "delete", "throw", "catch", "co_await", "co_return", "assert",
    "static_assert", "decltype", "noexcept", "case", "do", "else", "typeid",
}

_SUPPRESS_RE = re.compile(
    r"//\s*qf-allow\((?P<check>[\w-]+)\):\s*(?P<reason>.+)")

_MO_RE = re.compile(r"\bmemory_order_(\w+)")

_DEFAULT_RAII_TYPES = ("TraceSpan", "LockGuard", "UniqueLock",
                       "ThreadRankScope", "lock_guard", "unique_lock",
                       "scoped_lock")


@dataclasses.dataclass
class _Scope:
    kind: str                    # 'ns' | 'class' | 'func' | 'block'
    name: str = ""
    func: Optional[Function] = None


class TokenEngine:
    """Builds a Model from source files without a compiler."""

    def __init__(self, raii_types=_DEFAULT_RAII_TYPES):
        self.raii_types = set(raii_types)
        self.model = Model()
        # (cls, name) -> requires set, collected from declarations so a
        # QF_REQUIRES on the header prototype covers the .cpp definition.
        self._requires_decl = {}

    # -- public --------------------------------------------------------

    def add_file(self, path) -> None:
        path = pathlib.Path(path)
        text = path.read_text(encoding="utf-8", errors="replace")
        code, comments = strip_strings_and_comments(text)
        self._collect_line_facts(str(path), text, code, comments)
        self._scan(str(path), tokenize(code))

    def finish(self) -> Model:
        for fn in self.model.functions:
            fn.requires |= self._requires_decl.get((fn.cls, fn.name), set())
            fn.requires |= self._requires_decl.get((None, fn.name), set())
        return self.model

    # -- line-based facts ----------------------------------------------

    def _collect_line_facts(self, fname, text, code, comments):
        raw_lines = text.split("\n")
        code_lines = code.split("\n")
        self.model.code[fname] = code_lines
        comment_by_line = {}
        for line, c in comments:
            comment_by_line.setdefault(line, []).append(c)
            m = _SUPPRESS_RE.search(c)
            if m:
                self.model.suppressions[(fname, line)] = (
                    m.group("check"), m.group("reason").strip())

        def has_mo_comment(line):
            return any("mo:" in c for c in comment_by_line.get(line, ()))

        for i, cl in enumerate(code_lines, start=1):
            for m in _MO_RE.finditer(cl):
                justified = has_mo_comment(i)
                # Walk up through the contiguous (no blank line) run of at
                # most 10 preceding lines; a `// mo:` anywhere in it covers
                # this site (block justifications span loops).
                j = i - 1
                while (not justified and j > 0 and i - j <= 10
                       and raw_lines[j - 1].strip()):
                    justified = has_mo_comment(j)
                    j -= 1
                self.model.mo_sites.append(MoSite(
                    file=fname, line=i, order=m.group(1),
                    justified=justified,
                    context=raw_lines[i - 1].strip()))

    # -- token scan ----------------------------------------------------

    def _scan(self, fname, toks):
        scopes = [_Scope("ns", "")]
        stmt_start = 0          # index of the first token of the statement
        i = 0
        n = len(toks)

        def cur_func():
            # a class body nested in a function is class scope, not body
            for s in reversed(scopes):
                if s.kind == "class":
                    return None
                if s.kind == "func":
                    return s.func
            return None

        def cur_class():
            for s in reversed(scopes):
                if s.kind == "class":
                    return s.name
                if s.kind == "func":
                    return None
            return None

        def depth():
            return len(scopes)

        while i < n:
            t = toks[i]
            if t.text == "{":
                self._maybe_member(toks, i, cur_func(), cur_class())
                scopes.append(self._classify_scope(
                    fname, toks, stmt_start, i, scopes))
                i += 1
                stmt_start = i
                continue
            if t.text == "}":
                closing = scopes.pop() if len(scopes) > 1 else scopes[0]
                fn = cur_func() or (closing.func
                                    if closing.kind == "func" else None)
                if fn is not None:
                    fn.events.append(ScopeEnd(line=t.line, depth=depth() + 1))
                i += 1
                stmt_start = i
                continue
            if t.text == ";":
                self._maybe_member(toks, i, cur_func(), cur_class())
                i += 1
                stmt_start = i
                continue

            fn = cur_func()

            if t.text in ("=",) and fn is None and cur_class() is not None:
                self._maybe_member(toks, i, fn, cur_class())

            # QF_GUARDED_BY(expr) after a member declarator, in class scope.
            if (t.text == "QF_GUARDED_BY" and fn is None
                    and cur_class() is not None
                    and i + 1 < n and toks[i + 1].text == "("):
                close, args = self._read_parens(toks, i + 1)
                member = toks[i - 1].text if i > 0 else ""
                if re.match(r"^[A-Za-z_]\w*$", member):
                    self.model.guarded.append(GuardedMember(
                        cls=cur_class(), name=member,
                        guard=canonical(" ".join(args)),
                        file=fname, line=t.line))
                    self.model.members.add((cur_class(), member))
                i = close + 1
                continue

            # QF_REQUIRES(expr) on a declaration or definition header.
            if t.text == "QF_REQUIRES" and i + 1 < n and toks[i + 1].text == "(":
                close, args = self._read_parens(toks, i + 1)
                name = self._decl_name_before(toks, stmt_start, i)
                req = {canonical(a) for a in self._split_args(args)}
                if name:
                    cls = cur_class()
                    self._requires_decl.setdefault((cls, name), set()).update(req)
                    if cls is None and "::" not in name:
                        self._requires_decl.setdefault(
                            (None, name), set()).update(req)
                i = close + 1
                continue

            if fn is not None:
                i, stmt_start = self._scan_body_token(
                    fname, toks, i, stmt_start, fn, depth())
                continue

            # Namespace/class scope: static declarations.
            if (t.text == "static" and i == stmt_start
                    and scopes[-1].kind in ("ns", "class")
                    and scopes[-1].kind == "ns"):
                self._record_static(fname, toks, i)
            i += 1
        # never reached with balanced braces; fall through otherwise

    # -- helpers -------------------------------------------------------

    def _classify_scope(self, fname, toks, stmt_start, brace_i, scopes):
        head = toks[stmt_start:brace_i]
        texts = [t.text for t in head]
        in_func = any(s.kind == "func" for s in scopes)

        if "namespace" in texts:
            idx = texts.index("namespace")
            name = texts[idx + 1] if idx + 1 < len(texts) else ""
            return _Scope("ns", name if re.match(r"^\w+$", name or "-") else "")
        if "enum" in texts or "union" in texts:
            return _Scope("block")
        for kw in ("class", "struct"):
            if kw in texts and "(" not in texts[: texts.index(kw)]:
                idx = texts.index(kw)
                # skip attribute-like macros: the name is the last plain
                # identifier before `:` / `{` / 'final'
                tail = texts[idx + 1:]
                stop = len(tail)
                for stopper in (":",):
                    if stopper in tail:
                        stop = min(stop, tail.index(stopper))
                cand = [x for x in tail[:stop]
                        if re.match(r"^[A-Za-z_]\w*$", x)
                        and x not in ("final", "alignas")
                        and not x.startswith("QF_")]
                if cand and (not tail or tail[0] != "<"):
                    return _Scope("class", cand[-1])
        if in_func:
            return _Scope("block")

        # Function definition: `... name ( params ) [quals] {`
        fn = self._match_function_header(fname, head)
        if fn is not None:
            cls = None
            for s in reversed(scopes):
                if s.kind == "class":
                    cls = s.name
                    break
                if s.kind == "func":
                    break
            if "::" in fn.qualname:
                cls = fn.qualname.split("::")[-2]
            fn.cls = cls
            fn.is_ctor_dtor = (cls is not None
                               and fn.name.lstrip("~") == cls)
            self.model.functions.append(fn)
            return _Scope("func", fn.name, fn)
        return _Scope("block")

    def _match_function_header(self, fname, head):
        texts = [t.text for t in head]
        if "(" not in texts:
            return None

        # Constructor definitions end in an init list: truncate the head
        # at a top-level single `:` (tokenizer emits `::` as one token)
        # that follows the parameter list's `)`.
        level = 0
        seen_close = False
        for k, x in enumerate(texts):
            if x in "([{":
                level += 1
            elif x in ")]}":
                level -= 1
                seen_close = True
            elif x == ":" and level == 0 and seen_close:
                texts = texts[:k]
                break

        # Strip trailing qualifiers, `-> ret` trailing returns, and
        # annotation-macro groups `QF_*(...)` so the parameter list's `)`
        # ends the (stripped) head.
        quals = {"const", "noexcept", "override", "final", "mutable", "&",
                 "&&", "try"}
        while texts:
            if texts[-1] in quals:
                texts.pop()
                continue
            if texts[-1] == ")":
                open_j = self._match_back(texts, len(texts) - 1)
                if open_j > 0 and texts[open_j - 1].startswith("QF_"):
                    del texts[open_j - 1:]
                    continue
                if open_j > 0 and texts[open_j - 1] == "noexcept":
                    del texts[open_j - 1:]
                    continue
            if "->" in texts:
                arrow = len(texts) - 1 - texts[::-1].index("->")
                # trailing return only when the arrow follows the `)`
                lvl = 0
                for x in texts[arrow:]:
                    if x in "([{":
                        lvl += 1
                    elif x in ")]}":
                        lvl -= 1
                if lvl <= 0 and arrow > 0 and texts[arrow - 1] == ")":
                    del texts[arrow:]
                    continue
            break
        if not texts or texts[-1] != ")":
            return None
        open_j = self._match_back(texts, len(texts) - 1)
        if open_j <= 0:
            return None
        before = texts[open_j - 1]
        if before == "]":
            return None          # lambda introducer: body is a block
        if not re.match(r"^[A-Za-z_~]\w*$", before):
            return None
        if before in _KEYWORDS or before.startswith("QF_"):
            return None
        # collect `A::B::name`
        parts = [before]
        j = open_j - 1
        while j >= 2 and texts[j - 1] == "::" and re.match(
                r"^[A-Za-z_~]\w*$", texts[j - 2]):
            parts.append(texts[j - 2])
            j -= 2
        parts.reverse()
        name = parts[-1]
        return Function(qualname="::".join(parts), cls=None, name=name,
                        file=fname, line=head[0].line if head else 0)

    @staticmethod
    def _match_back(texts, close_i):
        """Index of the '(' matching the ')' at close_i, or -1."""
        level = 0
        for j in range(close_i, -1, -1):
            if texts[j] == ")":
                level += 1
            elif texts[j] == "(":
                level -= 1
                if level == 0:
                    return j
        return -1

    def _scan_body_token(self, fname, toks, i, stmt_start, fn, depth_):
        t = toks[i]
        n = len(toks)

        # Scoped lock declaration: [const] LockType [<...>] var ( expr )
        if t.text in _LOCK_TYPES and i + 1 < n:
            j = i + 1
            if toks[j].text == "<":                   # std::lock_guard<...>
                j = self._skip_angles(toks, j)
            if j < n and re.match(r"^[A-Za-z_]\w*$", toks[j].text):
                var = toks[j].text
                if j + 1 < n and toks[j + 1].text in "({":
                    close, args = self._read_group(toks, j + 1)
                    arglist = self._split_args(args)
                    if arglist and not any(
                            a in ("adopt_lock", "defer_lock",
                                  "std :: adopt_lock", "std :: defer_lock")
                            or "adopt_lock" in a or "defer_lock" in a
                            for a in arglist):
                        fn.events.append(AcquireEvent(
                            line=t.line, var=var,
                            mutex=canonical(arglist[0]),
                            depth=depth_, kind=_LOCK_TYPES[t.text]))
                    return close + 1, stmt_start
            # Unnamed temporary: LockType ( ... ) ; or LockType { ... } ;
            if i == stmt_start or (i >= 2 and toks[i - 1].text == "::"):
                if j < n and toks[j].text in "({":
                    close, _ = self._read_group(toks, j)
                    if close + 1 < n and toks[close + 1].text == ";":
                        self.model.raii_temps.append(RaiiTemp(
                            file=fname, line=t.line, type_name=t.text))
                        return close + 2, close + 2
            return i + 1, stmt_start

        # Other named-RAII temporaries at statement start.
        if (t.text in self.raii_types
                and (i == stmt_start
                     or (i == stmt_start + 2 and toks[i - 1].text == "::"))
                and i + 1 < n and toks[i + 1].text in "({"):
            close, _ = self._read_group(toks, i + 1)
            if close + 1 < n and toks[close + 1].text == ";":
                self.model.raii_temps.append(RaiiTemp(
                    file=fname, line=t.line, type_name=t.text))
                return close + 2, close + 2

        # static declarations at function scope
        if t.text == "static" and i == stmt_start:
            self._record_static(fname, toks, i)
            return i + 1, stmt_start

        # Call: ident ( ... )
        if (re.match(r"^[A-Za-z_]\w*$", t.text)
                and t.text not in _KEYWORDS
                and i + 1 < n and toks[i + 1].text == "("
                and not (i > 0 and toks[i - 1].text
                         in ("class", "struct", "enum"))):
            close, args = self._read_parens(toks, i + 1)
            fn.events.append(CallEvent(
                line=t.line, callee=t.text,
                args=self._split_args(args), depth=depth_))
            # keep scanning inside the arguments for member accesses
            return i + 1, stmt_start

        # Member access candidate for guarded-by.
        if re.match(r"^[A-Za-z_]\w*$", t.text) and t.text not in _KEYWORDS:
            fn.events.append(AccessEvent(
                line=t.line, member=t.text, depth=depth_))
        return i + 1, stmt_start

    def _record_static(self, fname, toks, i):
        """Record `static <decl> = / { / ;` skipping functions."""
        j = i + 1
        parts = []
        n = len(toks)
        while j < n and toks[j].text not in (";", "{", "=", "("):
            parts.append(toks[j].text)
            j += 1
        if j >= n or toks[j].text == "(":
            return              # function declaration or call-like init
        decl = " ".join(parts)
        if not parts or not re.match(r"^[A-Za-z_]\w*$", parts[-1]):
            return
        self.model.statics.append(StaticDecl(
            file=fname, line=toks[i].line, decl=decl,
            is_bool=bool(re.search(r"\bbool\b", decl))))

    _MEMBER_SKIP = {"true", "false", "nullptr", "default", "delete",
                    "override", "final", "const", "noexcept", "public",
                    "private", "protected"}

    def _maybe_member(self, toks, i, fn, cls):
        """Census of plain class members: the identifier right before a
        `;` / `=` / `{` at class scope."""
        if fn is not None or cls is None or i == 0:
            return
        prev = toks[i - 1].text
        if (re.match(r"^[A-Za-z_]\w*$", prev)
                and prev not in self._MEMBER_SKIP
                and prev not in _KEYWORDS):
            self.model.members.add((cls, prev))

    # token-group utilities --------------------------------------------

    @staticmethod
    def _read_parens(toks, open_i):
        return TokenEngine._read_group(toks, open_i)

    @staticmethod
    def _read_group(toks, open_i):
        """Return (index_of_close, inner_token_texts) for a ( or { group."""
        opener = toks[open_i].text
        closer = {"(": ")", "{": "}", "[": "]", "<": ">"}[opener]
        level = 0
        inner = []
        j = open_i
        n = len(toks)
        while j < n:
            x = toks[j].text
            if x == opener:
                level += 1
            elif x == closer:
                level -= 1
                if level == 0:
                    return j, inner
            if j > open_i:
                inner.append(x)
            j += 1
        return n - 1, inner

    @staticmethod
    def _skip_angles(toks, open_i):
        level = 0
        j = open_i
        n = len(toks)
        while j < n:
            if toks[j].text == "<":
                level += 1
            elif toks[j].text == ">":
                level -= 1
                if level == 0:
                    return j + 1
            elif toks[j].text in (";", "{"):
                return open_i + 1     # not a template argument list
            j += 1
        return n

    @staticmethod
    def _split_args(inner):
        """Split the token texts of a group on top-level commas."""
        args = []
        cur = []
        level = 0
        for x in inner:
            if x in "([{<":
                level += 1
            elif x in ")]}>":
                level -= 1
            if x == "," and level == 0:
                args.append(" ".join(cur))
                cur = []
            else:
                cur.append(x)
        if cur:
            args.append(" ".join(cur))
        return args

    @staticmethod
    def _decl_name_before(toks, stmt_start, attr_i):
        """Function name for `ret name(params) QF_REQUIRES(...)`: the
        identifier immediately before the parameter list's '('."""
        level = 0
        for j in range(attr_i - 1, stmt_start - 1, -1):
            x = toks[j].text
            if x == ")":
                level += 1
            elif x == "(":
                level -= 1
                if level == 0:
                    k = j - 1
                    if k >= 0 and re.match(r"^[A-Za-z_~]\w*$", toks[k].text):
                        return toks[k].text
                    return ""
        return ""


def build_model(paths, raii_types=_DEFAULT_RAII_TYPES) -> Model:
    eng = TokenEngine(raii_types=raii_types)
    for p in paths:
        eng.add_file(p)
    return eng.finish()
