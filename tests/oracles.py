"""Independent oracles the tests judge the package against."""

import re
from functools import lru_cache
from difflib import SequenceMatcher, unified_diff

from lintseq.diffkit import (
    BodyMismatch,
    DiffError,
    EditDiff,
    Hunk,
    MalformedDecorator,
    TruncatedHunk,
    join_lines,
    split_lines,
)
from lintseq.editcodec import (
    DEFAULT_SEPARATOR,
    ApplyConflict,
    ResolveError,
    check_separator,
    resolve,
    resolve_prefixes,
    resolve_stream,
    restore_final_newline,
)
from lintseq.lint import LinterSpec, extra_findings, get_linter
from lintseq.pycheck import (
    Analysis,
    LineScan,
    _classify_fresh,
    _fstring_exprs,
    check_lines,
    flow,
    scan_line,
)


def diff(before: str, after: str) -> EditDiff:
    """Diff two texts into zero-context hunks.

    Line matching is delegated to SequenceMatcher with the junk heuristic
    off, so below the heuristic's activation threshold the hunks are
    exactly the ones a reference unified diff with n=0 would print.
    """
    a = split_lines(before)
    b = split_lines(after)
    hunks = []
    matcher = SequenceMatcher(None, a, b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        hunks.append(
            Hunk(
                old_start=i1 + 1 if i2 > i1 else i1,
                old_len=i2 - i1,
                new_start=j1 + 1 if j2 > j1 else j1,
                new_len=j2 - j1,
                deletions=tuple(a[i1:i2]),
                insertions=tuple(b[j1:j2]),
            )
        )
    return EditDiff(tuple(hunks))


def reference_render(before: str, after: str) -> str:
    """Render via difflib's unified diff, headers stripped."""
    out = list(unified_diff(split_lines(before), split_lines(after), n=0, lineterm=""))
    return "\n".join(out[2:]) if out else ""


def per_line_render(hunks) -> str:
    """Render hunks one body line at a time: the formula ``Hunk.render`` keeps.

    Each hunk is its decorator (a range of length 1 written as its start
    alone), then ``"-" + line`` for each deletion and ``"+" + line`` for each
    insertion; all of these lines are joined by newlines.
    """
    def span(start: int, length: int) -> str:
        return str(start) if length == 1 else f"{start},{length}"

    out = []
    for h in hunks:
        out.append(f"@@ -{span(h.old_start, h.old_len)} +{span(h.new_start, h.new_len)} @@")
        out.extend("-" + line for line in h.deletions)
        out.extend("+" + line for line in h.insertions)
    return "\n".join(out)


def state_texts(seq) -> list[str]:
    """Program text of every state of a StateSequence, from empty to full.

    Built from the edits' inserted indices alone, apart from ``seq.states``.
    """
    kept: set[int] = set()
    texts = [""]
    for step in seq.inserted:
        kept.update(step)
        texts.append(join_lines(seq.lines[i] for i in sorted(kept)))
    return texts


def findings(program: str, linter=None) -> tuple[tuple[int, str, str], ...]:
    """The program's sorted (line, code, message) triples, the cascade's baseline."""
    return get_linter(linter or LinterSpec()).check_text(program)


def is_error_free_relative(candidate: str, baseline, linter=None) -> bool:
    """True when the candidate has no finding beyond the baseline multiset.

    This is the law the sampler applies (``lint.extra_findings``): a
    candidate may lose baseline findings, so the empty program of a dirty
    source passes, but never gain one.  ``baseline`` is the source's
    ``findings``.
    """
    return not extra_findings(findings(candidate, linter), baseline)


def cold_step(lines, kept: list[int], baseline, first: int) -> tuple[int, ...]:
    """One cascade step judged by cold checks: the sorted source indices it deletes.

    ``kept`` is the caller's own list of the kept source indices, and the
    step's are taken out of it in place.  It deletes ``first``, then checks
    the lines left with ``check_lines``, maps each candidate line ``n`` to
    source line ``kept[n - 1] + 1``, and deletes the lines of the findings
    ``extra_findings`` finds beyond ``baseline``, until there are none.
    """
    step = {first}
    while True:
        kept[:] = [i for i in kept if i not in step]
        cold = check_lines([lines[i] for i in kept])
        extras = extra_findings([(kept[n - 1] + 1, code, msg) for n, code, msg in cold], baseline)
        if not extras:
            return tuple(sorted(step))
        step.update(line - 1 for line, _, _ in extras)


def flow_checked(analysis, kept: list[int], deleted=()) -> list[tuple[int, str, str]]:
    """``flow`` on ``analysis``, asserted equal to ``check_lines`` on the candidate.

    ``kept`` is the caller's own list of the source indices the Analysis
    keeps: the deleted ones are taken out of it in place, and it must equal
    ``analysis.kept``.  The findings must be those of a cold check of the
    lines left, each candidate line ``n`` mapped to source line
    ``kept[n - 1] + 1``.

    The run itself must equal a cold run: a fresh Analysis of the same
    lines whose first call deletes every line not kept, and so walks
    exactly the kept ones.  Both hold the same stored states for the kept
    lines and the end slot, the same events for the kept lines, and the
    same aggregates built from them.
    """
    deleted = list(deleted)
    got = flow(analysis, deleted)
    gone = set(deleted)
    kept[:] = [i for i in kept if i not in gone]
    assert analysis.kept == kept, (deleted, kept)
    cold = check_lines([analysis.lines[i] for i in kept])
    assert got == [(kept[n - 1] + 1, code, msg) for n, code, msg in cold], (deleted, kept)

    fresh = Analysis(analysis.lines)
    keep = set(kept)
    assert flow(fresh, [i for i in range(len(fresh.lines)) if i not in keep]) == got
    assert _run_view(analysis) == _run_view(fresh), (deleted, kept)
    return got


def recording_scan(keys: list):
    """An unbounded scan cache of its own, to patch in as ``pycheck._scan``.

    It appends to ``keys`` each (text, entry state) that is looked up in it,
    found or not, and gives the same scan object for a key every time.
    """
    cache = lru_cache(None)(scan_line)

    def scan(raw: str, entry: str):
        keys.append((raw, entry))
        return cache(raw, entry)

    return scan


def _run_view(analysis) -> tuple:
    """What a run holds of its kept lines: states, events and aggregates."""
    kept = analysis.kept
    return (
        [analysis._states[i] for i in kept] + [analysis._states[-1]],
        [analysis._events[i] for i in kept],
        analysis._findings,
        analysis._defs,
        analysis._unresolved,
        {name: group for name, group in analysis._uses.items() if group},
    )


# The per-character line scanner that ``pycheck.scan_line`` replaced,
# frozen here with its own prefix, indentation and bracket rules so that
# the scanner is judged against it and not against itself.

_REFERENCE_PAIR = {"(": ")", "[": "]", "{": "}"}
_REFERENCE_PREFIX_RE = re.compile(r"[rRbBuUfF]{1,2}")


def _reference_indent_width(raw: str) -> int:
    width = 0
    for ch in raw:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width += 8 - width % 8
        else:
            break
    return width


def _reference_find_close(raw: str, start: int, quotes: str) -> int | None:
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


def reference_scan_line(raw: str, entry: str) -> LineScan:
    """Scan one line a character at a time into a ``LineScan``."""
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
        end = _reference_find_close(raw, 0, state)
        if end is None:
            scan.exit_state = state
            return scan
        saw_string = True
        state = ""
        i = end

    scan.indent = _reference_indent_width(raw)
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
                and _REFERENCE_PREFIX_RE.fullmatch(prefix)
                and (j == 0 or not (raw[j - 1].isalnum() or raw[j - 1] == "_"))
            )
            if is_prefix:
                for k in range(j, i):
                    buf[k] = " "
            quotes = c * 3 if raw.startswith(c * 3, i) else c
            width = len(quotes)
            end = _reference_find_close(raw, i + width, quotes)
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
        if c in _REFERENCE_PAIR:
            buf[i] = c
            local_stack.append(c)
        elif c in _REFERENCE_PAIR.values():
            buf[i] = c
            if local_stack:
                op = local_stack.pop()
                if _REFERENCE_PAIR[op] != c:
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
    _classify_fresh(scan)
    return scan


def resolve_record(record) -> str:
    """Resolve a record's training text to the exact source bytes."""
    return restore_final_newline(resolve(record.training_text), record.program)


# The text-level reader the line-list one replaced: a regex split into part
# texts, then a per-line walk of each part.  Frozen here so that the
# resolvers are judged against it and not against themselves.


def reference_split_serialized(text: str, separator: str = DEFAULT_SEPARATOR) -> list[str]:
    """Split a training string into per-edit diff texts.

    Text before the first separator (including text with no separator at
    all) is kept as a leading raw diff, so bare diff streams resolve too.
    Blank segments are dropped.
    """
    check_separator(separator)
    # lookbehind keeps the left newline unconsumed so that back-to-back
    # separator lines each still begin at a line start
    pattern = re.compile(rf"(?:^|(?<=\n)){re.escape(separator)}(?:\n|$)")
    return [part.rstrip("\n") for part in pattern.split(text) if part.strip("\n")]


_DECORATOR_RE = re.compile(
    r"^@@ -(?P<os>\d+)(?:,(?P<ol>\d+))? \+(?P<ns>\d+)(?:,(?P<nl>\d+))? @@(?: .*)?$"
)


def reference_parse_diff(text: str) -> EditDiff:
    """Parse a rendered diff back into hunks.

    Accepts the canonical rendering plus tolerant variants: an omitted
    ``,len`` (meaning 1), trailing annotation after the closing ``@@``, and
    surrounding blank lines.  Raises MalformedDecorator, TruncatedHunk, or
    BodyMismatch; an empty or blank text parses as a diff with no hunks.
    """
    body = text.strip("\n")
    if not body:
        return EditDiff(())
    lines = body.split("\n")
    hunks = []
    i = 0
    while i < len(lines):
        m = _DECORATOR_RE.match(lines[i])
        if m is None:
            raise MalformedDecorator(f"not a hunk decorator: {lines[i]!r}")
        old_start = int(m["os"])
        old_len = int(m["ol"]) if m["ol"] is not None else 1
        new_start = int(m["ns"])
        new_len = int(m["nl"]) if m["nl"] is not None else 1
        if old_len + new_len == 0:
            raise MalformedDecorator(f"hunk declares no content: {lines[i]!r}")
        if (old_len > 0 and old_start < 1) or (new_len > 0 and new_start < 1):
            raise MalformedDecorator(f"non-empty range starting at 0: {lines[i]!r}")
        i += 1
        if i >= len(lines):
            raise TruncatedHunk(f"stream ends after decorator {lines[i - 1]!r}")
        deletions = []
        insertions = []
        for bucket, prefix, want in ((deletions, "-", old_len), (insertions, "+", new_len)):
            for _ in range(want):
                if i >= len(lines):
                    raise BodyMismatch(
                        f"hunk {lines[len(lines) - 1]!r}: body shorter than declared"
                    )
                line = lines[i]
                if not line.startswith(prefix):
                    raise BodyMismatch(
                        f"expected a {prefix!r} body line, got {line!r}"
                    )
                bucket.append(line[1:])
                i += 1
        hunks.append(
            Hunk(
                old_start=old_start,
                old_len=old_len,
                new_start=new_start,
                new_len=new_len,
                deletions=tuple(deletions),
                insertions=tuple(insertions),
            )
        )
    return EditDiff(tuple(hunks))


def reference_apply(text: str, edit: EditDiff | str) -> str:
    """Apply one edit to program text, re-splitting and re-joining it whole.

    The text-level resolver step the line-list ``editcodec.apply`` replaced;
    output is newline-terminated, input may or may not be.
    """
    if isinstance(edit, str):
        edit = reference_parse_diff(edit)
    orig = split_lines(text)
    out: list[str] = []
    cursor = 0  # next orig line not yet emitted
    for hi, hunk in enumerate(edit.hunks):
        anchor = hunk.old_start - 1 if hunk.old_len else hunk.old_start
        if anchor < cursor:
            raise ApplyConflict(f"hunk {hi + 1} overlaps or precedes an earlier hunk")
        if anchor + hunk.old_len > len(orig):
            raise ApplyConflict(
                f"hunk {hi + 1} falls outside the text "
                f"(wants lines through {anchor + hunk.old_len} of {len(orig)})"
            )
        out.extend(orig[cursor:anchor])
        cursor = anchor
        for k, expect in enumerate(hunk.deletions):
            found = orig[cursor + k]
            if found != expect:
                raise ApplyConflict(
                    f"hunk {hi + 1}: deletion mismatch at line {cursor + k + 1}: "
                    f"expected {expect!r}, found {found!r}"
                )
        cursor += hunk.old_len
        out.extend(hunk.insertions)
    out.extend(orig[cursor:])
    return join_lines(out)


def reference_fold(edit_text: str):
    """Fold ``reference_apply`` over a stream's ``reference_split_serialized``
    parts from the empty program.

    Returns the text after each edit that applied and, if an edit failed,
    its ``(edit_index, kind, message)``; else None.
    """
    texts = []
    text = ""
    for idx, part in enumerate(reference_split_serialized(edit_text)):
        try:
            text = reference_apply(text, part)
        except DiffError as exc:
            return texts, (idx, type(exc).__name__, str(exc))
        texts.append(text)
    return texts, None


def assert_resolvers_match_reference(edit_text: str) -> None:
    """``resolve_stream`` and ``resolve_prefixes`` agree with ``reference_fold``.

    Same program, same applied count, same failure index, kind and message.
    """
    texts, failure = reference_fold(edit_text)
    outcome = resolve_stream(edit_text)
    f = outcome.failure
    assert outcome.program == (texts[-1] if texts else "")
    assert outcome.applied == len(texts)
    assert (f and (f.edit_index, type(f.cause).__name__, str(f.cause))) == failure
    try:
        prefixes = resolve_prefixes(edit_text)
    except ResolveError as exc:
        assert (exc.edit_index, type(exc.cause).__name__, str(exc.cause)) == failure
    else:
        assert failure is None and prefixes == texts
