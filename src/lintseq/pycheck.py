"""Line-oriented surface checker for Python program fragments.

The checker never builds an AST: program states produced by deleting
arbitrary lines from a valid program routinely fail to parse, and the
whole point is to report which surviving lines lost something they
depended on.  Instead every line is scanned once into context-free facts
(cleaned code, bracket events, indent, string state transitions, name
uses and bindings) and a cheap flow pass walks any subset of lines,
threading cross-line state: open strings, open brackets, indentation
blocks, scopes, and definition order.

Checks covered: bracket balance and pairing, indentation-block
consistency, header/body pairing for block openers, unterminated string
literals, and definition-before-use for module and function names
(imports included).  Full semantic analysis is a non-goal; the documented
approximations (annotation-only statements do not bind, ``match``/``case``
headers are opaque, one-line ``def`` bodies resolve at the def line,
semicolon chains use intra-line token order) keep the pass linear.

A ``LineScan`` is a pure function of a line's text and the string state
it is entered in, and it caches its name facts, both as a fresh statement
and per continuation mode.  So ``Analysis`` looks scans up by (text, entry
state) in a mapping that other Analyses may share: the built-in lint
engine passes one to every program it sets up.  The ``Analysis`` also owns
the kept lines and one flow run over them, edited in place: by source
index, the walk state each kept line was entered in and the events the
line produced.
A walk state holds each fact once: the scope in effect is that of the
innermost indentation level, and a header's opened scope travels with its
logical line and then with the header that waits for a body.  A call names
only the lines it deletes.  It walks on from each deleted line until a kept
line is entered in the same state as before, and resolves again only the
uses that a changed definition can affect (a star import is a definition
of ``*``), so each check of a deletion cascade costs about the span the
deletion changed.  A call takes the old events of every line it deletes or
walks out of the run's aggregates, and only then puts the new events in,
each as it is; the structural findings are a plain set.

The first run is copied as the base, and ``Analysis.restart`` makes a copy
of it the run again, one C-level copy per list, dict and set.  So when
every cascade's first run keeps every line, each later cascade starts from
that whole-program walk, and its first check costs the span of its first
deletion too.
"""

from __future__ import annotations

import builtins
import keyword
import re
from bisect import bisect_left
from collections import defaultdict
from typing import Iterable, Sequence

_KEYWORDS = frozenset(keyword.kwlist)
_MODULE_GLOBALS = (
    "__file__", "__name__", "__doc__", "__package__", "__loader__",
    "__spec__", "__builtins__", "__annotations__", "__dict__",
)
_BUILTINS = frozenset(dir(builtins)) | frozenset(_MODULE_GLOBALS)
_PAIR = {"(": ")", "[": "]", "{": "}"}
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_AUG_OPS = frozenset(
    ["+=", "-=", "*=", "/=", "//=", "%=", "**=", ">>=", "<<=", "&=", "|=", "^=", "@="]
)
_STRING_PREFIX_RE = re.compile(r"[rRbBuUfF]{1,2}")
_LATE = 10000  # sub-position offset: assignment targets bind after the line's uses

_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|\d[\w.]*"
    r"|\*\*=|//=|>>=|<<="
    r"|:=|->|==|!=|<=|>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|@="
    r"|\*\*|//|<<|>>"
    r"|\S"
)


def _is_name(tok: str) -> bool:
    return (tok[0].isalpha() or tok[0] == "_") and tok not in _KEYWORDS


def _tokens(code: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start()) for m in _TOKEN_RE.finditer(code)]


def _indent_width(raw: str) -> int:
    width = 0
    for ch in raw:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width += 8 - width % 8
        else:
            break
    return width


def _find_close(raw: str, start: int, quotes: str) -> int | None:
    """Index just past the first unescaped ``quotes`` at or after ``start``."""
    i = start
    n = len(raw)
    while i < n:
        if raw[i] == "\\":
            i += 2
            continue
        if raw.startswith(quotes, i):
            return i + len(quotes)
        i += 1
    return None


def _fstring_exprs(content: str, pos: int) -> list[tuple[int, str]]:
    """Top-level ``{...}`` expression sources of an f-string body."""
    out = []
    depth = 0
    start = 0
    i = 0
    n = len(content)
    while i < n:
        c = content[i]
        if c == "{":
            if depth == 0 and content.startswith("{{", i):
                i += 2
                continue
            if depth == 0:
                start = i + 1
            depth += 1
        elif c == "}":
            if depth == 0:
                i += 2 if content.startswith("}}", i) else 1
                continue
            depth -= 1
            if depth == 0:
                out.append((pos, content[start:i]))
        i += 1
    return out


class NameFacts:
    """Classified name events of one scanned line."""

    __slots__ = (
        "uses",
        "defs",
        "pending",
        "scope_kind",
        "scope_params",
        "first_word",
    )

    def __init__(self) -> None:
        self.uses: list[tuple[str, int]] = []
        self.defs: list[tuple[str, int]] = []
        self.pending: str | None = None
        self.scope_kind: str | None = None
        self.scope_params: tuple[str, ...] = ()
        self.first_word = ""


class LineScan:
    """Context-free facts of one physical line for one entry string state."""

    __slots__ = (
        "exit_state",
        "indent",
        "has_content",
        "code",
        "closes",
        "opens",
        "last_char",
        "ends_backslash",
        "inline_findings",
        "fstrings",
        "_fresh",
        "_cont",
    )

    def __init__(self) -> None:
        self.exit_state = ""
        self.indent = 0
        self.has_content = False
        self.code = ""
        self.closes: tuple[str, ...] = ()
        self.opens: tuple[str, ...] = ()
        self.last_char = ""
        self.ends_backslash = False
        self.inline_findings: tuple[tuple[str, str], ...] = ()
        self.fstrings: tuple[tuple[int, str], ...] = ()
        self._fresh: NameFacts | None = None
        self._cont: dict[str | None, tuple[tuple, tuple]] = {}

    def fresh_facts(self) -> NameFacts:
        if self._fresh is None:
            self._fresh = _classify_fresh(self.code, self.fstrings)
        return self._fresh

    def cont_facts(self, mode: str | None) -> tuple[tuple, tuple]:
        """(uses, defs) of this line continuing a statement opened in ``mode``.

        ``mode`` is the ``pending`` mode of the statement's first line:
        ``import`` and ``def`` lists have their own rules, anything else
        scans as an expression.  For ``def`` the defs are parameters.
        """
        facts = self._cont.get(mode)
        if facts is None:
            toks = _tokens(self.code)
            if mode == "import":
                facts = _import_cont(toks)
            elif mode == "def":
                facts = _def_cont(toks, self.fstrings)
            else:
                uses: list = []
                defs: list = []
                _scan_expr(toks, 0, len(toks), uses, defs, kwarg_any_depth=True)
                _add_fstring_uses(self.fstrings, toks, uses)
                facts = (tuple(uses), tuple(defs))
            self._cont[mode] = facts
        return facts


def scan_line(raw: str, entry: str) -> LineScan:
    scan = LineScan()
    n = len(raw)
    buf = [" "] * n
    inline: list[tuple[str, str]] = []
    fstrings: list[tuple[int, str]] = []
    local_stack: list[str] = []
    closes: list[str] = []
    opens: list[str] = []
    saw_string = False
    state = entry
    i = 0

    if state:
        end = _find_close(raw, 0, state)
        if end is None:
            scan.exit_state = state
            return scan
        saw_string = True
        state = ""
        i = end

    scan.indent = _indent_width(raw)
    while i < n:
        c = raw[i]
        if c == "#":
            break
        if c == '"' or c == "'":
            saw_string = True
            qpos = i
            j = i
            while j > 0 and j > i - 2 and raw[j - 1].isalpha():
                j -= 1
            prefix = raw[j:i]
            is_prefix = bool(
                prefix
                and _STRING_PREFIX_RE.fullmatch(prefix)
                and (j == 0 or not (raw[j - 1].isalnum() or raw[j - 1] == "_"))
            )
            if is_prefix:
                for k in range(j, i):
                    buf[k] = " "
            quotes = c * 3 if raw.startswith(c * 3, i) else c
            width = len(quotes)
            end = _find_close(raw, i + width, quotes)
            if end is None:
                if width == 3:
                    state = quotes
                else:
                    inline.append(("unterminated-string", "unterminated string literal"))
                break
            if is_prefix and "f" in prefix.lower():
                fstrings.extend(_fstring_exprs(raw[i + width : end - width], qpos))
            i = end
            continue
        if c in _OPENERS:
            buf[i] = c
            local_stack.append(c)
        elif c in _CLOSERS:
            buf[i] = c
            if local_stack:
                op = local_stack.pop()
                if _PAIR[op] != c:
                    inline.append(
                        ("mismatched-bracket", f"closing '{c}' does not match opening '{op}'")
                    )
            else:
                closes.append(c)
        else:
            buf[i] = c
        i += 1

    opens.extend(local_stack)
    code = "".join(buf)
    stripped = code.rstrip()
    ends_backslash = stripped.endswith("\\")
    if ends_backslash:
        stripped = stripped[:-1].rstrip()
        code = code[: len(stripped)] + " " * (len(code) - len(stripped))

    scan.exit_state = state
    scan.has_content = bool(stripped) or saw_string
    scan.code = code
    scan.closes = tuple(closes)
    scan.opens = tuple(opens)
    scan.last_char = stripped[-1:] if stripped else ""
    scan.ends_backslash = ends_backslash
    scan.inline_findings = tuple(inline)
    scan.fstrings = tuple(fstrings)
    return scan


def _add_fstring_uses(
    fstrings: Sequence[tuple[int, str]],
    toks: list[tuple[str, int]],
    uses: list[tuple[str, int]],
) -> None:
    if not fstrings:
        return
    starts = [s for _, s in toks]
    for pos, expr in fstrings:
        sub = 0
        while sub < len(starts) and starts[sub] < pos:
            sub += 1
        names: list[str] = []
        _fstring_names(expr, names)
        for name in names:
            uses.append((name, sub))


def _fstring_names(expr: str, out: list[str]) -> None:
    depth = 0
    cut = len(expr)
    for idx, ch in enumerate(expr):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and ch in ":!":
            if ch == "!" and expr[idx + 1 : idx + 2] == "=":
                continue
            cut = idx
            break
    toks = _tokens(expr[:cut])
    for i, (t, _) in enumerate(toks):
        if not _is_name(t):
            continue
        prev = toks[i - 1][0] if i else ""
        nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
        if prev != "." and nxt != "=":
            out.append(t)
    for m in re.finditer(r"\{([^{}]*)\}", expr[cut:]):
        _fstring_names(m.group(1), out)


def _scan_expr(
    toks: list[tuple[str, int]],
    start: int,
    end: int,
    uses: list[tuple[str, int]],
    defs: list[tuple[str, int]],
    *,
    kwarg_any_depth: bool = False,
) -> None:
    """Generic expression/compound-statement scan of a token span."""
    depth = 0
    lambda_params: set[str] = set()
    in_lambda_params = False
    comp_target = False
    i = start
    while i < end:
        t = toks[i][0]
        if in_lambda_params:
            if t == ":":
                in_lambda_params = False
            elif _is_name(t):
                lambda_params.add(t)
            i += 1
            continue
        if t in _OPENERS:
            depth += 1
        elif t in _CLOSERS:
            depth -= 1
        elif t == "lambda":
            in_lambda_params = True
        elif t == "for":
            comp_target = True
        elif t == "in":
            comp_target = False
        elif _is_name(t):
            prev = toks[i - 1][0] if i > start else ""
            nxt = toks[i + 1][0] if i + 1 < end else ""
            if prev == ".":
                pass
            elif prev == "as":
                defs.append((t, i))
            elif nxt == ":=":
                defs.append((t, _LATE + i))
            elif comp_target:
                defs.append((t, -1))
            elif nxt == "=":
                if depth == 0 and not kwarg_any_depth:
                    defs.append((t, _LATE + i))
                # else: keyword argument, neither use nor def
            elif t in lambda_params:
                pass
            else:
                uses.append((t, i))
        i += 1


def _target_names(
    toks: list[tuple[str, int]],
    start: int,
    end: int,
    uses: list[tuple[str, int]],
    defs: list[tuple[str, int]],
) -> None:
    """Names of an assignment-target span: bare names bind, the rest are uses."""
    stack: list[bool] = []
    i = start
    while i < end:
        t = toks[i][0]
        if t in _OPENERS:
            prev = toks[i - 1][0] if i > start else ""
            call_like = t == "{" or (prev != "" and (_is_name(prev) or prev in ")]"))
            stack.append(call_like)
        elif t in _CLOSERS:
            if stack:
                stack.pop()
        elif _is_name(t):
            prev = toks[i - 1][0] if i > start else ""
            nxt = toks[i + 1][0] if i + 1 < end else ""
            if prev == ".":
                pass
            elif any(stack):
                if nxt != "=":
                    uses.append((t, i))
            elif nxt in (".", "(", "["):
                uses.append((t, i))
            else:
                defs.append((t, _LATE + i))
        i += 1


def _parse_import(toks: list[tuple[str, int]], defs: list[tuple[str, int]]) -> None:
    # import a.b as c, d.e  ->  binds c and d
    head: tuple[str, int] | None = None
    alias: tuple[str, int] | None = None
    expect_alias = False

    def emit() -> None:
        if alias is not None:
            defs.append(alias)
        elif head is not None:
            defs.append(head)

    for i in range(1, len(toks)):
        t = toks[i][0]
        if t == ",":
            emit()
            head = alias = None
            expect_alias = False
        elif t == "as":
            expect_alias = True
        elif _is_name(t):
            if expect_alias:
                alias = (t, i)
                expect_alias = False
            elif head is None:
                head = (t, i)
    emit()


def _parse_from_import(toks: list[tuple[str, int]], facts: NameFacts) -> None:
    # from pkg.mod import x, y as z   |   from mod import *   |   from mod import (
    try:
        imp = next(i for i, (t, _) in enumerate(toks) if t == "import")
    except StopIteration:
        return
    i = imp + 1
    while i < len(toks):
        t = toks[i][0]
        if t == "*":
            facts.defs.append(("*", i))  # binds every name of the scope
        elif t == "(":
            facts.pending = "import"
        elif t == "as":
            if i + 1 < len(toks) and _is_name(toks[i + 1][0]):
                # the alias replaces the name before it; a star stays
                if facts.defs and facts.defs[-1][1] == i - 1 and toks[i - 1][0] != "*":
                    facts.defs.pop()
                facts.defs.append((toks[i + 1][0], i + 1))
                i += 1
        elif _is_name(t):
            facts.defs.append((t, i))
        i += 1


def _import_cont(toks: list[tuple[str, int]]) -> tuple[tuple, tuple]:
    defs: list[tuple[str, int]] = []
    for i, (t, _) in enumerate(toks):
        if not _is_name(t):
            continue
        nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
        if nxt == "as":
            continue
        defs.append((t, i))
    return ((), tuple(defs))


def _walk_params(
    toks: list[tuple[str, int]],
    i: int,
    mode: str,
    uses: list[tuple[str, int]],
    params: list[tuple[str, int]],
) -> tuple[int, str]:
    """Walk def parameter-list tokens from ``toks[i]``, at the list's own level.

    At that level a name is a parameter until ``=`` or ``:`` switches to a
    default or annotation, whose names are uses, and ``,`` switches back.
    Nested names are uses unless they name a keyword argument.  Stops at
    the bracket that closes the list; returns its index (``len(toks)``
    when the list stays open) and the mode reached.
    """
    depth = 0
    while i < len(toks):
        t = toks[i][0]
        if t in _OPENERS:
            depth += 1
        elif t in _CLOSERS:
            depth -= 1
            if depth < 0:
                break
        elif depth == 0:
            if t == ",":
                mode = "param"
            elif t == "=":
                mode = "default"
            elif t == ":":
                mode = "annotation"
            elif _is_name(t):
                if mode == "param":
                    params.append((t, i))
                elif i == 0 or toks[i - 1][0] != ".":
                    uses.append((t, i))
        elif _is_name(t):
            nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
            if toks[i - 1][0] != "." and nxt != "=":
                uses.append((t, i))
        i += 1
    return i, mode


def _def_cont(
    toks: list[tuple[str, int]], fstrings: Sequence[tuple[int, str]]
) -> tuple[tuple, tuple]:
    """Continuation of a multi-line def header: params vs default/annotation uses."""
    uses: list[tuple[str, int]] = []
    params: list[tuple[str, int]] = []
    mode = "param"
    depth = 0
    i = 0
    while i < len(toks):
        if depth == 0:
            i, mode = _walk_params(toks, i, mode, uses, params)
            depth = -1
        else:
            # past the header's closing paren: return annotation etc.; a
            # bracket that reopens to the list's level resumes the walk
            t = toks[i][0]
            if t in _OPENERS:
                depth += 1
            elif t in _CLOSERS:
                depth -= 1
            elif _is_name(t) and toks[i - 1][0] != ".":
                uses.append((t, i))
        i += 1
    _add_fstring_uses(fstrings, toks, uses)
    return (tuple(uses), tuple(params))


def _top_colon(toks: list[tuple[str, int]], start: int, end: int) -> int | None:
    """Index of the first ``:`` outside brackets in ``toks[start:end]``."""
    depth = 0
    for k in range(start, end):
        t = toks[k][0]
        if t in _OPENERS:
            depth += 1
        elif t in _CLOSERS:
            depth -= 1
        elif t == ":" and depth == 0:
            return k
    return None


def _parse_def(
    toks: list[tuple[str, int]], start: int, facts: NameFacts
) -> None:
    i = start + 1
    if i >= len(toks) or not _is_name(toks[i][0]):
        return
    facts.defs.append((toks[i][0], i))
    facts.scope_kind = "function"
    params: list[tuple[str, int]] = []
    i += 1
    closed = True
    if i < len(toks) and toks[i][0] == "(":
        close, _ = _walk_params(toks, i + 1, "param", facts.uses, params)
        closed = close < len(toks)
        i = close + 1
    facts.scope_params = tuple(name for name, _ in params)
    if not closed:
        facts.pending = "def"
        return
    # return annotation up to the block colon, then a possible inline body
    colon = _top_colon(toks, i, len(toks))
    ann_end = colon if colon is not None else len(toks)
    for k in range(i, ann_end):
        t = toks[k][0]
        if _is_name(t) and toks[k - 1][0] != ".":
            facts.uses.append((t, k))
    if colon is not None and colon + 1 < len(toks):
        body_uses: list[tuple[str, int]] = []
        body_defs: list[tuple[str, int]] = []
        _scan_expr(toks, colon + 1, len(toks), body_uses, body_defs)
        pset = set(facts.scope_params)
        facts.uses.extend((n, s) for n, s in body_uses if n not in pset)
        facts.scope_kind = None
        facts.scope_params = ()


def _parse_class(toks: list[tuple[str, int]], start: int, facts: NameFacts) -> None:
    i = start + 1
    if i >= len(toks) or not _is_name(toks[i][0]):
        return
    facts.defs.append((toks[i][0], i))
    facts.scope_kind = "class"
    i += 1
    end = len(toks)
    if i < end and toks[i][0] == "(":
        depth = 0
        j = i
        while j < end:
            t = toks[j][0]
            if t in _OPENERS:
                depth += 1
            elif t in _CLOSERS:
                depth -= 1
                if depth == 0:
                    break
            j += 1
        _scan_expr(toks, i + 1, j, facts.uses, facts.defs, kwarg_any_depth=True)
        i = j + 1
    # inline body after the colon: treat like any expression, no new scope
    colon = _top_colon(toks, i, end)
    if colon is not None and colon + 1 < end:
        _scan_expr(toks, colon + 1, end, facts.uses, facts.defs)
        facts.scope_kind = None


def _parse_assignment(
    toks: list[tuple[str, int]], facts: NameFacts
) -> bool:
    depth = 0
    eq_positions: list[int] = []
    aug_pos = None
    for i, (t, _) in enumerate(toks):
        if t in _OPENERS:
            depth += 1
        elif t in _CLOSERS:
            depth -= 1
        elif depth == 0:
            if t == "=":
                eq_positions.append(i)
            elif t in _AUG_OPS and aug_pos is None:
                aug_pos = i
    if aug_pos is not None and (not eq_positions or aug_pos < eq_positions[0]):
        tgt_uses: list[tuple[str, int]] = []
        tgt_defs: list[tuple[str, int]] = []
        _target_names(toks, 0, aug_pos, tgt_uses, tgt_defs)
        facts.uses.extend(tgt_uses)
        for name, sub in tgt_defs:
            # an augmented target is read before it is rebound
            facts.uses.append((name, sub - _LATE))
            facts.defs.append((name, sub))
        _scan_expr(toks, aug_pos + 1, len(toks), facts.uses, facts.defs)
        return True
    if not eq_positions:
        return False
    _scan_expr(toks, eq_positions[-1] + 1, len(toks), facts.uses, facts.defs)
    seg_start = 0
    for eq in eq_positions:
        # optional annotation: target [: annotation] = value
        colon = _top_colon(toks, seg_start, eq)
        tgt_end = colon if colon is not None else eq
        _target_names(toks, seg_start, tgt_end, facts.uses, facts.defs)
        if colon is not None:
            _scan_expr(toks, colon + 1, eq, facts.uses, facts.defs)
        seg_start = eq + 1
    return True


def _classify_fresh(code: str, fstrings: Sequence[tuple[int, str]]) -> NameFacts:
    facts = NameFacts()
    toks = _tokens(code)
    if not toks:
        _add_fstring_uses(fstrings, toks, facts.uses)
        return facts
    start = 1 if toks[0][0] == "async" and len(toks) > 1 else 0
    first = toks[start][0]
    facts.first_word = "async " + first if start else first
    if first == "import":
        _parse_import(toks[start:], facts.defs)
    elif first == "from":
        _parse_from_import(toks[start:], facts)
    elif first in ("global", "nonlocal"):
        for t, _ in toks[start + 1 :]:
            if _is_name(t):
                facts.defs.append((t, -1))
    elif first == "def":
        _parse_def(toks, start, facts)
    elif first == "class":
        _parse_class(toks, start, facts)
    elif first in ("match", "case") and toks[-1][0] == ":":
        pass  # soft-keyword headers are opaque to the surface checker
    elif first == "@" or first in _KEYWORDS:
        _scan_expr(toks, start, len(toks), facts.uses, facts.defs)
    elif not _parse_assignment(toks, facts):
        _scan_expr(toks, start, len(toks), facts.uses, facts.defs)
    _add_fstring_uses(fstrings, toks, facts.uses)
    return facts


def _missing_body(opener: tuple) -> tuple[int, str, str]:
    line, word, _ = opener
    return (line, "missing-block-body", f"expected an indented block after '{word}'")


# The walk state a line is entered in:
#   (sstate, string_open, brackets, levels, opener, logical)
# A scope is (kind, header index, parent scope), the module ("module", -1,
# None).  ``levels`` links one (indent, scope inside the block, outer
# levels) per open block, so ``levels[1]`` is the current scope.  ``opener``
# is the (line, word, opened scope or None) of a header still waiting for
# its body, ``logical`` the (start, first word, last char, opened scope or
# None, continuation mode) of a statement that continues on the next line.
_START = ("", 0, None, (0, ("module", -1, None), None), None, None)

# A source line's events: (structural findings, defs, uses).  Defs and uses
# are (scope, name, source index, sub-position) records; (index, sub) orders
# them as in the source.  A star import is a def of ``*``.
_NO_EVENTS: tuple = ((), (), ())


class Analysis:
    """Line scans, kept lines, one ``flow`` run and its base for one source.

    Scans are looked up in ``scans``, by (line text, entry string state), and
    a miss calls ``scan_line`` and stores its result there.  A scan depends
    on nothing else, so any number of Analyses may share one mapping, and
    equal lines of one or many sources are scanned once per entry state.
    Without ``scans`` the Analysis has a private mapping.  Sharing one is
    the caller's choice, and so is its bound: the built-in lint engine owns
    the mapping that every program it sets up shares, and starts a fresh
    one only between programs.

    A fresh Analysis keeps every line and has walked none of them.  ``kept``
    is the sorted list of kept source indices; callers read it, and only
    ``flow`` and ``restart`` change it.  The run holds, by source index, the
    walk state each kept line was entered in (a plain value of nested
    tuples, so equal states compare equal across Analyses of one source) and
    the events it produced; slot ``len(lines)`` of the states is the state
    after the last kept line.  It also holds the aggregates built from the
    events: the set of structural findings, sorted def positions per (scope,
    name), uses by name and the unresolved uses.  A set holds the findings
    exactly: each names the line that produced it, or a header that exactly
    one kept line consumes, so only one kept line's events can hold it, and
    a repeat such as ``))`` comes only within one line's events.  Positions
    are source indices, so a line's events do not depend on deletions
    elsewhere, and ``flow`` edits the run in place: it walks only the lines
    whose walk state changed and updates the aggregates by their events
    alone, all old events out before any new one goes in.

    The first run is copied as the base, and ``restart`` makes a copy of the
    base the run again.
    """

    __slots__ = (
        "lines", "kept", "_scans", "_states", "_events",
        "_findings", "_defs", "_uses", "_unresolved", "_base",
    )

    def __init__(
        self, lines: Sequence[str], scans: dict[tuple[str, str], LineScan] | None = None
    ) -> None:
        self.lines = tuple(lines)
        self.kept: list[int] = list(range(len(self.lines)))
        self._scans = {} if scans is None else scans
        # no line walked yet: a stored state of None matches no walk state
        self._states: list[tuple | None] = [None] * (len(self.lines) + 1)
        self._events: list[tuple] = [_NO_EVENTS] * len(self.lines)
        self._findings: set[tuple[int, str, str]] = set()
        self._defs: dict[tuple[tuple, str], tuple[tuple[int, int], ...]] = {}
        self._uses: defaultdict[str, set[tuple]] = defaultdict(set)
        self._unresolved: set[tuple] = set()
        self._base: tuple | None = None  # a snapshot of the first run

    def scan(self, idx: int, entry: str) -> LineScan:
        key = (self.lines[idx], entry)
        f = self._scans.get(key)
        if f is None:
            f = self._scans[key] = scan_line(*key)
        return f

    def _resolvable(self, scope: tuple, name: str, idx: int, sub: int) -> bool:
        s: tuple | None = scope
        passed_function = False
        while s is not None:
            if s[0] == "class" and s is not scope:
                s = s[2]
                continue
            if (s, "*") in self._defs:
                return True
            dps = self._defs.get((s, name))
            if dps and (passed_function or dps[0] < (idx, sub)):
                return True
            if s[0] == "function":
                passed_function = True
            s = s[2]
        return False

    def _snapshot(self) -> tuple:
        """A copy of the run that shares no container a call mutates.

        Def positions are tuples, and states and events are never changed
        in place, so one C-level copy per list and dict, of the structural
        findings and unresolved uses, and of each name's uses suffices.
        """
        uses = self._uses
        return (
            self.kept[:], self._states[:], self._events[:], set(self._findings),
            dict(self._defs), defaultdict(set, zip(uses, map(set.copy, uses.values()))),
            set(self._unresolved),
        )

    def restart(self) -> None:
        """Make the base the run again; after a first call.

        The base itself becomes the run, and a fresh snapshot of it the base.
        """
        (
            self.kept, self._states, self._events, self._findings,
            self._defs, self._uses, self._unresolved,
        ) = self._base
        self._base = self._snapshot()

    def _absorb(self, removed: list[tuple], added: list[tuple]) -> None:
        """Take the ``removed`` events out of the run, then put ``added`` in.

        Every removal comes before every addition: a header's
        ``missing-block-body`` finding can move from one line's events to
        another's within one call, and adding it first would let its removal
        drop it.  Every added use, and the uses of each name whose earliest
        def in some scope moved, are resolved again; every use is when the
        earliest def of ``*`` (a star import) in some scope moved.
        """
        findings = self._findings
        all_defs = self._defs
        uses_by_name = self._uses
        unresolved = self._unresolved
        firsts: dict[tuple[tuple, str], tuple[int, int] | None] = {}
        for found, defs, uses in removed:
            findings.difference_update(found)
            for sc, name, idx, sub in defs:
                key = (sc, name)
                dps = all_defs[key]
                firsts.setdefault(key, dps[0])
                k = bisect_left(dps, (idx, sub))
                all_defs[key] = dps[:k] + dps[k + 1 :]
            for use in uses:
                uses_by_name[use[1]].discard(use)
                unresolved.discard(use)
        recheck: list[tuple] = []
        for found, defs, uses in added:
            findings.update(found)
            for sc, name, idx, sub in defs:
                key = (sc, name)
                dps = all_defs.get(key, ())
                firsts.setdefault(key, dps[0] if dps else None)
                k = bisect_left(dps, (idx, sub))
                all_defs[key] = dps[:k] + ((idx, sub),) + dps[k:]
            for use in uses:
                uses_by_name[use[1]].add(use)
            recheck += uses

        moved = set()
        for key, first in firsts.items():
            dps = all_defs[key]
            if not dps:
                del all_defs[key]
            if (dps[0] if dps else None) != first:
                moved.add(key[1])
        if "*" in moved:
            recheck = [u for group in uses_by_name.values() for u in group]
        else:
            for name in moved:
                recheck.extend(uses_by_name.get(name, ()))
        for use in recheck:
            if self._resolvable(*use):
                unresolved.discard(use)
            else:
                unresolved.add(use)


def flow(analysis: Analysis, deleted: Iterable[int] = ()) -> list[tuple[int, str, str]]:
    """Delete the given source indices from the kept lines and check the rest.

    Each deleted index must be kept; otherwise ``ValueError`` is raised and
    the run is left as it was.  Returns sorted (line, code, message)
    findings; a line number is a kept line's source index plus one, so on
    an Analysis that keeps every line it is the line's 1-based position.

    The run on ``analysis`` is edited in place.  A walk starts at the first
    kept line, in ``_START``, and after each deleted line, in the state
    that line was entered in; it stops at the first kept line whose stored
    entry state is equal, since the run holds from there up to the next
    deleted line, or at the end.  A start at or before the point where the
    previous walk stopped was walked already.  The first call on a fresh
    Analysis walks every line it keeps, and its run is copied as the base.
    """
    a = analysis
    kept, states, events = a.kept, a._states, a._events
    dels = sorted(deleted)
    cuts: list[int] = []  # positions in ``kept`` of the deleted lines
    for idx in dels:
        p = bisect_left(kept, idx)
        if p == len(kept) or kept[p] != idx or (cuts and cuts[-1] == p):
            raise ValueError(f"source line {idx} is not kept")
        cuts.append(p)
    for p in reversed(cuts):
        del kept[p]
    starts = [(0, _START)]
    starts += [(p - k, states[idx]) for k, (p, idx) in enumerate(zip(cuts, dels))]
    removed = [events[idx] for idx in dels]
    added: list[tuple] = []
    n = len(kept)
    stop = -1
    for p, st in starts:
        if p <= stop:
            continue
        while p < n:
            idx = kept[p]
            if states[idx] == st:
                break
            states[idx] = st
            p += 1
            sstate, string_open, brackets, levels, opener, logical = st
            entry = sstate
            f = a.scan(idx, entry)
            sstate = f.exit_state
            if not sstate:
                string_open = 0
            elif not entry:
                string_open = idx
            if not f.has_content:
                # a line with inline findings has a quote or a bracket
                ev = _NO_EVENTS
            else:
                found = [(idx, fcode, fmsg) for fcode, fmsg in f.inline_findings]
                defs: list[tuple] = []
                if logical is None:
                    nf = f.fresh_facts()
                    ind = f.indent
                    if opener is not None:
                        if ind > levels[0]:
                            # a def or class header's block is its opened scope
                            levels = (ind, opener[2] or levels[1], levels)
                        else:
                            found.append(_missing_body(opener))
                        opener = None
                    if ind > levels[0]:
                        found.append((idx, "unexpected-indent", "unexpected indent"))
                        levels = (ind, levels[1], levels)
                    elif ind < levels[0]:
                        while ind < levels[0]:
                            levels = levels[2]
                        if ind != levels[0]:
                            found.append(
                                (
                                    idx,
                                    "inconsistent-dedent",
                                    "dedent does not match any outer indentation level",
                                )
                            )
                            levels = (ind, levels[1], levels)
                    scope = target = levels[1]
                    cu, cd = nf.uses, nf.defs
                    opened = None
                    if nf.scope_kind is not None:
                        opened = (nf.scope_kind, idx, scope)
                        defs = [(opened, name, idx, 0) for name in nf.scope_params]
                    start, first, last, mode = idx, nf.first_word, "", nf.pending
                else:
                    start, first, last, opened, mode = logical
                    cu, cd = f.cont_facts(mode)
                    scope = levels[1]
                    # a def header's parameters bind in the function's own scope
                    target = opened if mode == "def" else scope
                if cd:
                    defs += [(target, name, idx, sub) for name, sub in cd]
                uses = [(scope, name, idx, sub) for name, sub in cu if name not in _BUILTINS]

                for ch in f.closes:
                    if brackets is None:
                        found.append((idx, "unmatched-close", f"unmatched '{ch}'"))
                    else:
                        op, _, brackets = brackets
                        if _PAIR[op] != ch:
                            found.append(
                                (
                                    idx,
                                    "mismatched-bracket",
                                    f"closing '{ch}' does not match opening '{op}'",
                                )
                            )
                for ch in f.opens:
                    brackets = (ch, idx, brackets)

                if f.last_char:
                    last = f.last_char
                if sstate == "" and not f.ends_backslash and brackets is None:
                    if last == ":":
                        opener = (start, first or "statement", opened)
                    logical = None
                else:
                    logical = (start, first, last, opened, mode)
                ev = (found, defs, uses)
            removed.append(events[idx])
            events[idx] = ev
            added.append(ev)
            st = (sstate, string_open, brackets, levels, opener, logical)
        else:
            states[-1] = st
        stop = p

    a._absorb(removed, added)
    if a._base is None:
        a._base = a._snapshot()

    sstate, string_open, brackets, _, opener, _ = states[-1]
    out = set(a._findings)
    if opener is not None:
        out.add(_missing_body(opener))
    if sstate:
        out.add((string_open, "unterminated-string", "unterminated triple-quoted string"))
    while brackets is not None:
        ch, line, brackets = brackets
        out.add((line, "unclosed-bracket", f"unclosed '{ch}'"))
    for _, name, line, _ in a._unresolved:
        out.add((line, "undefined-name", f"undefined name '{name}'"))
    return [(line + 1, code, msg) for line, code, msg in sorted(out)]


def check_lines(lines: Sequence[str]) -> list[tuple[int, str, str]]:
    return flow(Analysis(lines))
