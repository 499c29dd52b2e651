"""Line-oriented surface checker for Python program fragments.

The checker never builds an AST: program states produced by deleting
arbitrary lines from a valid program routinely fail to parse, and the
whole point is to report which surviving lines lost something they
depended on.  Instead every line is scanned once into context-free facts
(cleaned code, bracket events, indent, string state transitions, name
uses and bindings) and a cheap flow pass walks any subset of lines,
threading cross-line state: open strings, open brackets, indentation
blocks, scopes, and definition order.  A scan reads its line in two
passes: the first blanks its strings and its comment, the second reads
the brackets off the blanked code.

Checks covered: bracket balance and pairing, indentation-block
consistency, header/body pairing for block openers, unterminated string
literals, and definition-before-use for module and function names
(imports included).  Full semantic analysis is a non-goal; the documented
approximations (annotation-only statements do not bind, ``match``/``case``
headers are opaque, one-line ``def`` bodies resolve at the def line,
semicolon chains use intra-line token order) keep the pass linear.

A ``LineScan`` is a pure function of a line's text and the string state
it is entered in, and it is the line's one record: ``scan_line`` stores in
it the line's name facts as a fresh statement, and the scan caches them as
a continuation line per mode.  So every ``Analysis`` looks scans up in one
bounded least-recently-used cache keyed by (text, entry state), and a line
met in a recent source is not scanned again.  A line entered inside a
triple-quoted string that does not hold that quote is a string interior by
that fact alone, so it is never looked up: the only string interiors the
cache holds are lines that hold the quote escaped.  An ``Analysis`` owns
the kept lines and one flow run over them, edited in place: by source
index, the walk state each kept line was entered in and the events the
line produced.  A walk state holds each fact once: the scope in effect is
that of the innermost indentation level, and a header's opened scope
travels with its logical line and then with the header that waits for a
body.  A call names only the lines it deletes.  It walks on from each deleted line until a kept
line is entered in the same state as before, and resolves again only the
uses that a changed definition can affect (a star import is a definition
of ``*``), so each check of a deletion cascade costs about the span the
deletion changed.  A call takes the old events of every line it deletes,
and of every walked line whose events changed, out of the run's
aggregates, and only then puts the new events in, each as it is; the
structural findings are a plain set.  A line's events are tuples, never
changed once stored.  A walked line without content (blank, comment or
string interior) passes the walk state on as it is.

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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

_KEYWORDS = frozenset(keyword.kwlist)
_MODULE_GLOBALS = (
    "__file__", "__name__", "__doc__", "__package__", "__loader__",
    "__spec__", "__builtins__", "__annotations__", "__dict__",
)
_BUILTINS = frozenset(dir(builtins)) | frozenset(_MODULE_GLOBALS)
_PAIR = {"(": ")", "[": "]", "{": "}"}
_OPENERS = frozenset(_PAIR)
_CLOSERS = frozenset(_PAIR.values())
_STEP = {**dict.fromkeys(_PAIR, 1), **dict.fromkeys(_PAIR.values(), -1)}
_BRACKET_RE = re.compile("[" + re.escape("".join(_STEP)) + "]")
_AUG_OPS = frozenset(
    ["+=", "-=", "*=", "/=", "//=", "%=", "**=", ">>=", "<<=", "&=", "|=", "^=", "@="]
)
_QUOTE_OR_HASH_RE = re.compile(r"[#'\"]")  # where a line's code stops being copied as is
# searched over the two characters before a quote: ``\w`` is ``isalnum`` or ``_``
_STRING_PREFIX_RE = re.compile(r"(?<!\w)[rRbBuUfF]{1,2}$")
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


# a token is its text; ``_tokens(code, 0, pos)`` gives those before ``pos``
_tokens = _TOKEN_RE.findall


def _depths(toks: list[str]) -> list[int]:
    """Bracket depth before each token, and after the last one."""
    return list(accumulate((_STEP.get(t, 0) for t in toks), initial=0))


def _indent_width(raw: str) -> int:
    return len(raw[: len(raw) - len(raw.lstrip(" \t"))].expandtabs(8))


def _find_close(raw: str, start: int, quotes: str) -> int | None:
    """Index just past the first unescaped ``quotes`` at or after ``start``."""
    while True:
        end = raw.find(quotes, start)
        if end < 0:
            return None
        escape = raw.find("\\", start, end)
        if escape < 0:
            return end + len(quotes)
        start = escape + 2


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


@dataclass(slots=True, eq=False)
class LineScan:
    """Context-free facts of one physical line for one entry string state.

    ``uses`` through ``first_word`` are its name facts as a fresh
    statement; ``cont_facts`` gives them as a continuation line.  A scan
    without content (a blank or comment line, or one wholly inside a
    string) exits in the string state it was entered in.
    """

    exit_state: str = ""
    indent: int = 0
    has_content: bool = False
    code: str = ""
    closes: tuple[str, ...] = ()
    opens: tuple[str, ...] = ()
    last_char: str = ""
    ends_backslash: bool = False
    inline_findings: tuple[tuple[str, str], ...] = ()
    fstrings: tuple[tuple[int, str], ...] = ()
    uses: list[tuple[str, int]] = field(default_factory=list)
    defs: list[tuple[str, int]] = field(default_factory=list)
    pending: str | None = None
    scope_kind: str | None = None
    scope_params: tuple[str, ...] = ()
    first_word: str = ""
    _cont: dict[str | None, tuple[tuple, tuple]] = field(default_factory=dict, init=False, repr=False)

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
            else:
                uses: list = []
                defs: list = []
                if mode == "def":
                    _params(toks, _depths(toks), 0, len(toks), 0, uses, defs)
                else:
                    _scan_expr(toks, 0, len(toks), uses, defs, kwarg_any_depth=True)
                _add_fstring_uses(self.fstrings, self.code, uses)
                facts = (tuple(uses), tuple(defs))
            self._cont[mode] = facts
        return facts


def scan_line(raw: str, entry: str) -> LineScan:
    """Scan ``raw`` entered in string state ``entry``, in two passes.

    The first pass makes ``code``: ``raw`` with strings, their prefixes and
    the comment blanked, position for position.  It jumps from one ``#`` or
    quote to the next and copies the code between as one slice; an
    unclosed string ends it.  The second reads the brackets off ``code``.
    """
    scan = LineScan()
    parts: list[str] = []
    fstrings: list[tuple[int, str]] = []
    saw_string = unterminated = False
    state = entry
    i = 0

    if state:
        end = _find_close(raw, 0, state)
        if end is None:
            scan.exit_state = state
            return scan
        saw_string = True
        state = ""
        parts.append(" " * end)
        i = end

    scan.indent = _indent_width(raw)
    stop = len(raw)
    while (m := _QUOTE_OR_HASH_RE.search(raw, i)) is not None:
        j = m.start()
        c = raw[j]
        if c == "#":
            stop = j
            break
        saw_string = True
        prefix = _STRING_PREFIX_RE.search(raw, max(j - 2, 0), j)
        k = prefix.start() if prefix else j
        quotes = c * 3 if raw.startswith(c * 3, j) else c
        width = len(quotes)
        end = _find_close(raw, j + width, quotes)
        if end is None:
            stop = k
            if width == 3:
                state = quotes
            else:
                unterminated = True
            break
        if prefix and "f" in prefix.group().lower():
            fstrings.extend(_fstring_exprs(raw[j + width : end - width], j))
        parts += (raw[i:k], " " * (end - k))
        i = end
    parts.append(raw[i:stop])
    code = "".join(parts).ljust(len(raw))

    stack: list[str] = []
    closes: list[str] = []
    inline: list[tuple[str, str]] = []
    for c in _BRACKET_RE.findall(code):
        if c in _OPENERS:
            stack.append(c)
        elif stack:
            op = stack.pop()
            if _PAIR[op] != c:
                inline.append(_mismatch(op, c))
        else:
            closes.append(c)
    if unterminated:
        inline.append(("unterminated-string", "unterminated string literal"))

    stripped = code.rstrip()
    ends_backslash = stripped.endswith("\\")
    if ends_backslash:
        stripped = stripped[:-1].rstrip()
        code = code[: len(stripped)] + " " * (len(code) - len(stripped))

    scan.exit_state = state
    scan.has_content = bool(stripped) or saw_string
    scan.code = code
    scan.closes = tuple(closes)
    scan.opens = tuple(stack)
    scan.last_char = stripped[-1:] if stripped else ""
    scan.ends_backslash = ends_backslash
    scan.inline_findings = tuple(inline)
    scan.fstrings = tuple(fstrings)
    _classify_fresh(scan)
    return scan


def _add_fstring_uses(
    fstrings: Sequence[tuple[int, str]], code: str, uses: list[tuple[str, int]]
) -> None:
    # the quote at ``pos`` is blanked in ``code``, so no token spans it
    for pos, expr in fstrings:
        sub = len(_tokens(code, 0, pos))
        names: list[str] = []
        _fstring_names(expr, names)
        uses += [(name, sub) for name in names]


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
    for i, t in enumerate(toks):
        if not _is_name(t):
            continue
        prev = toks[i - 1] if i else ""
        nxt = toks[i + 1] if i + 1 < len(toks) else ""
        if prev != "." and nxt != "=":
            out.append(t)
    for m in re.finditer(r"\{([^{}]*)\}", expr[cut:]):
        _fstring_names(m.group(1), out)


def _scan_expr(
    toks: list[str],
    start: int,
    end: int,
    uses: list[tuple[str, int]],
    defs: list[tuple[str, int]],
    *,
    kwarg_any_depth: bool = False,
) -> None:
    """Generic expression/compound-statement scan of a token span."""
    # its own count: a lambda's parameter span is skipped, brackets and all
    depth = 0
    lambda_params: set[str] = set()
    in_lambda_params = False
    comp_target = False
    i = start
    while i < end:
        t = toks[i]
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
            prev = toks[i - 1] if i > start else ""
            nxt = toks[i + 1] if i + 1 < end else ""
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
    toks: list[str],
    start: int,
    end: int,
    uses: list[tuple[str, int]],
    defs: list[tuple[str, int]],
) -> None:
    """Names of an assignment-target span: bare names bind, the rest are uses."""
    stack: list[bool] = []
    i = start
    while i < end:
        t = toks[i]
        if t in _OPENERS:
            prev = toks[i - 1] if i > start else ""
            call_like = t == "{" or (prev != "" and (_is_name(prev) or prev in ")]"))
            stack.append(call_like)
        elif t in _CLOSERS:
            if stack:
                stack.pop()
        elif _is_name(t):
            prev = toks[i - 1] if i > start else ""
            nxt = toks[i + 1] if i + 1 < end else ""
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


def _parse_import(toks: list[str], defs: list[tuple[str, int]]) -> None:
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
        t = toks[i]
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


def _parse_from_import(toks: list[str], facts: LineScan) -> None:
    # from pkg.mod import x, y as z   |   from mod import *   |   from mod import (
    if "import" not in toks:
        return
    i = toks.index("import") + 1
    while i < len(toks):
        t = toks[i]
        if t == "*":
            facts.defs.append(("*", i))  # binds every name of the scope
        elif t == "(":
            facts.pending = "import"
        elif t == "as":
            if i + 1 < len(toks) and _is_name(toks[i + 1]):
                # the alias replaces the name before it; a star stays
                if facts.defs and facts.defs[-1][1] == i - 1 and toks[i - 1] != "*":
                    facts.defs.pop()
                facts.defs.append((toks[i + 1], i + 1))
                i += 1
        elif _is_name(t):
            facts.defs.append((t, i))
        i += 1


def _import_cont(toks: list[str]) -> tuple[tuple, tuple]:
    defs: list[tuple[str, int]] = []
    for i, t in enumerate(toks):
        if not _is_name(t):
            continue
        nxt = toks[i + 1] if i + 1 < len(toks) else ""
        if nxt == "as":
            continue
        defs.append((t, i))
    return ((), tuple(defs))


def _params(
    toks: list[str],
    depth: list[int],
    start: int,
    stop: int,
    base: int,
    uses: list[tuple[str, int]],
    params: list[tuple[str, int]],
) -> None:
    """Walk the def parameter-list tokens ``toks[start:stop]``, whose level is ``base``.

    At that level a name is a parameter until ``=`` or ``:`` switches to a
    default or annotation, whose names are uses, and ``,`` switches back.
    Deeper names are uses unless they name a keyword argument.  Below
    ``base``, past the close of a header continued on this line, every
    name is a use, and a bracket that reopens to ``base`` resumes the list.
    """
    is_param = True
    for k in range(start, stop):
        t = toks[k]
        d = depth[k]
        if d == base and t in (",", "=", ":"):
            is_param = t == ","
        elif _is_name(t):
            if d == base and is_param:
                params.append((t, k))
            elif k and toks[k - 1] == ".":
                pass  # an attribute
            elif d <= base or k + 1 == len(toks) or toks[k + 1] != "=":
                uses.append((t, k))


def _close(depth: list[int], i: int, end: int) -> int:
    """Index of the token that closes the bracket ``toks[i]``, or ``end``."""
    for k in range(i + 1, end):
        if depth[k + 1] == depth[i]:
            return k
    return end


def _top_colon(toks: list[str], depth: list[int], start: int, end: int) -> int | None:
    """Index of the first ``:`` in ``toks[start:end]`` at the bracket depth of its start."""
    for k in range(start, end):
        if toks[k] == ":" and depth[k] == depth[start]:
            return k
    return None


def _parse_def(toks: list[str], start: int, facts: LineScan) -> None:
    i = start + 1
    end = len(toks)
    if i >= end or not _is_name(toks[i]):
        return
    facts.defs.append((toks[i], i))
    facts.scope_kind = "function"
    depth = _depths(toks)
    params: list[tuple[str, int]] = []
    i += 1
    if i < end and toks[i] == "(":
        close = _close(depth, i, end)
        _params(toks, depth, i + 1, close, depth[i + 1], facts.uses, params)
        i = close + 1
    facts.scope_params = tuple(name for name, _ in params)
    if i > end:  # the parameter list stays open
        facts.pending = "def"
        return
    # return annotation up to the block colon, then a possible inline body
    colon = _top_colon(toks, depth, i, end)
    ann_end = colon if colon is not None else end
    for k in range(i, ann_end):
        t = toks[k]
        if _is_name(t) and toks[k - 1] != ".":
            facts.uses.append((t, k))
    if colon is not None and colon + 1 < end:
        body_uses: list[tuple[str, int]] = []
        body_defs: list[tuple[str, int]] = []
        _scan_expr(toks, colon + 1, end, body_uses, body_defs)
        pset = set(facts.scope_params)
        facts.uses.extend((n, s) for n, s in body_uses if n not in pset)
        facts.scope_kind = None
        facts.scope_params = ()


def _parse_class(toks: list[str], start: int, facts: LineScan) -> None:
    i = start + 1
    end = len(toks)
    if i >= end or not _is_name(toks[i]):
        return
    facts.defs.append((toks[i], i))
    facts.scope_kind = "class"
    depth = _depths(toks)
    i += 1
    if i < end and toks[i] == "(":
        close = _close(depth, i, end)
        _scan_expr(toks, i + 1, close, facts.uses, facts.defs, kwarg_any_depth=True)
        i = close + 1
    # inline body after the colon: treat like any expression, no new scope
    colon = _top_colon(toks, depth, i, end)
    if colon is not None and colon + 1 < end:
        _scan_expr(toks, colon + 1, end, facts.uses, facts.defs)
        facts.scope_kind = None


def _parse_assignment(toks: list[str], facts: LineScan) -> bool:
    depth = _depths(toks)
    top = [i for i, t in enumerate(toks) if depth[i] == 0 and (t == "=" or t in _AUG_OPS)]
    if not top:
        return False
    if toks[top[0]] != "=":
        # an augmented assignment: its operator comes before any plain ``=``
        aug_pos = top[0]
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
    eq_positions = [i for i in top if toks[i] == "="]
    _scan_expr(toks, eq_positions[-1] + 1, len(toks), facts.uses, facts.defs)
    seg_start = 0
    for eq in eq_positions:
        # optional annotation: target [: annotation] = value
        colon = _top_colon(toks, depth, seg_start, eq)
        tgt_end = colon if colon is not None else eq
        _target_names(toks, seg_start, tgt_end, facts.uses, facts.defs)
        if colon is not None:
            _scan_expr(toks, colon + 1, eq, facts.uses, facts.defs)
        seg_start = eq + 1
    return True


def _classify_fresh(facts: LineScan) -> None:
    """Fill in the name facts of a scanned line as a fresh statement."""
    toks = _tokens(facts.code)
    if not toks:
        _add_fstring_uses(facts.fstrings, facts.code, facts.uses)
        return
    start = 1 if toks[0] == "async" and len(toks) > 1 else 0
    first = toks[start]
    facts.first_word = "async " + first if start else first
    if first == "import":
        _parse_import(toks[start:], facts.defs)
    elif first == "from":
        _parse_from_import(toks[start:], facts)
    elif first in ("global", "nonlocal"):
        for t in toks[start + 1 :]:
            if _is_name(t):
                facts.defs.append((t, -1))
    elif first == "def":
        _parse_def(toks, start, facts)
    elif first == "class":
        _parse_class(toks, start, facts)
    elif first in ("match", "case") and toks[-1] == ":":
        pass  # soft-keyword headers are opaque to the surface checker
    elif first == "@" or first in _KEYWORDS:
        _scan_expr(toks, start, len(toks), facts.uses, facts.defs)
    elif not _parse_assignment(toks, facts):
        _scan_expr(toks, start, len(toks), facts.uses, facts.defs)
    _add_fstring_uses(facts.fstrings, facts.code, facts.uses)


def _missing_body(opener: tuple) -> tuple[int, str, str]:
    line, word, _ = opener
    return (line, "missing-block-body", f"expected an indented block after '{word}'")


def _mismatch(op: str, ch: str) -> tuple[str, str]:
    return ("mismatched-bracket", f"closing '{ch}' does not match opening '{op}'")


# The walk state a line is entered in:
#   (sstate, brackets, levels, opener, logical)
# A scope is (kind, header index, parent scope), the module ("module", -1,
# None).  ``levels`` links one (indent, scope inside the block, outer
# levels) per open block, so ``levels[1]`` is the current scope.  ``opener``
# is the (line, word, opened scope or None) of a header still waiting for
# its body, ``logical`` the (start, first word, last char, opened scope or
# None, continuation mode) of a statement that continues on the next line.
_START = ("", None, (0, ("module", -1, None), None), None, None)

# A source line's events: (structural findings, defs, uses).  Defs and uses
# are (scope, name, source index, sub-position) records; (index, sub) orders
# them as in the source.  A star import is a def of ``*``.
_NO_EVENTS: tuple = ((), (), ())


@lru_cache(maxsize=4096)
def _scan(raw: str, entry: str) -> LineScan:
    """The scan of ``raw`` entered in ``entry``, shared by every Analysis.

    ``flow`` looks up a string interior only if it holds its quote escaped,
    so the keys without content are nearly all blank and comment lines (279
    of the 3,175 below).  Over five samples of each program, the bench's 400
    short programs make 2,103 distinct scans in all, and its six long stdlib
    modules 3,175 (on 3.11), no one more than 1,068; so neither corpus fills
    the cache.  A scan with its key takes about 0.8 KB on the short programs
    and 1.2 KB on the long ones, so the cache holds at most about 5.0 MB.  A program whose scans outgrow it rescans some lines while
    it is sampled: slower, never different, as a scan is a pure function of
    its key.
    """
    return scan_line(raw, entry)


class Analysis:
    """Kept lines, one ``flow`` run and its base for one source.

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
    alone, all old events out before any new one goes in.  Two kinds of
    walked line are left out of that update.  A line without content has
    no events, so it only gives back old ones.  A line whose events are
    equal to its stored ones keeps them: by the one-holder rule above no
    other line takes out or puts in one of its findings, its defs and uses
    carry its own source index, and its uses are resolved again anyway when
    the earliest def of their name moves.

    The first run is copied as the base, and ``restart`` makes a copy of the
    base the run again.
    """

    __slots__ = (
        "lines", "kept", "_states", "_events",
        "_findings", "_defs", "_uses", "_unresolved", "_base",
    )

    def __init__(self, lines: Sequence[str]) -> None:
        self.lines = tuple(lines)
        self.kept: list[int] = list(range(len(self.lines)))
        # no line walked yet: a stored state of None matches no walk state
        self._states: list[tuple | None] = [None] * (len(self.lines) + 1)
        self._events: list[tuple] = [_NO_EVENTS] * len(self.lines)
        self._findings: set[tuple[int, str, str]] = set()
        self._defs: dict[tuple[tuple, str], tuple[tuple[int, int], ...]] = {}
        self._uses: defaultdict[str, set[tuple]] = defaultdict(set)
        self._unresolved: set[tuple] = set()
        self._base: tuple | None = None  # a snapshot of the first run

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


def cut_kept(kept: list[int], deleted: Iterable[int]) -> tuple[list[int], list[int]]:
    """Take ``deleted`` out of the sorted list ``kept``, in place.

    Returns the sorted deleted indices and the positions in ``kept`` they
    held.  Each one must be kept and named once; otherwise ``ValueError``
    names it and ``kept`` is left as it was.
    """
    dels = sorted(deleted)
    cuts: list[int] = []
    for idx in dels:
        p = bisect_left(kept, idx)
        if p == len(kept) or kept[p] != idx or (cuts and cuts[-1] == p):
            raise ValueError(f"source line {idx} is not kept")
        cuts.append(p)
    for p in reversed(cuts):
        del kept[p]
    return dels, cuts


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

    Two kinds of walked line skip the bookkeeping.  A line whose scan has no
    content (blank, comment or string interior) exits in the string state it
    was entered in and changes no other part of the walk state, so the walk
    stores its entry state, goes on in the same state, and takes its old
    events out only if it held any.  A line entered inside a triple-quoted
    string that does not hold that quote is not scanned: ``scan_line`` finds
    no close in it, so its scan has no content.  A line whose new events
    equal its stored ones goes into neither the removed nor the added
    events, which is exact as ``Analysis`` explains.
    """
    a = analysis
    lines, kept, states, events = a.lines, a.kept, a._states, a._events
    dels, cuts = cut_kept(kept, deleted)
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
            entry = st[0]
            raw = lines[idx]
            if (entry and entry not in raw) or not (f := _scan(raw, entry)).has_content:
                # no events: a line with inline findings has a quote or a bracket
                if events[idx] is not _NO_EVENTS:
                    removed.append(events[idx])
                    events[idx] = _NO_EVENTS
                continue
            _, brackets, levels, opener, logical = st
            sstate = f.exit_state
            found = [(idx, fcode, fmsg) for fcode, fmsg in f.inline_findings]
            defs: list[tuple] = []
            if logical is None:
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
                cu, cd = f.uses, f.defs
                opened = None
                if f.scope_kind is not None:
                    opened = (f.scope_kind, idx, scope)
                    defs = [(opened, name, idx, 0) for name in f.scope_params]
                start, first, last, mode = idx, f.first_word, "", f.pending
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
                        found.append((idx, *_mismatch(op, ch)))
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
            ev = (tuple(found), tuple(defs), tuple(uses))
            if events[idx] != ev:
                removed.append(events[idx])
                events[idx] = ev
                added.append(ev)
            st = (sstate, brackets, levels, opener, logical)
        else:
            states[-1] = st
        stop = p

    a._absorb(removed, added)
    if a._base is None:
        a._base = a._snapshot()

    sstate, brackets, _, opener, _ = states[-1]
    out = set(a._findings)
    if opener is not None:
        out.add(_missing_body(opener))
    if sstate:
        # the first kept line is entered in code and every kept line after
        # the string's opener inside it, so the opener is the last in code
        line = next(idx for idx in reversed(kept) if not states[idx][0])
        out.add((line, "unterminated-string", "unterminated triple-quoted string"))
    while brackets is not None:
        ch, line, brackets = brackets
        out.add((line, "unclosed-bracket", f"unclosed '{ch}'"))
    for _, name, line, _ in a._unresolved:
        out.add((line, "undefined-name", f"undefined name '{name}'"))
    return [(line + 1, code, msg) for line, code, msg in sorted(out)]


def check_lines(lines: Sequence[str]) -> list[tuple[int, str, str]]:
    return flow(Analysis(lines))
