"""Zero-context line diffs: construction, rendering, parsing.

The canonical rendering is the unified hunk format without file headers:
a decorator line ``@@ -<old_start>[,<old_len>] +<new_start>[,<new_len>] @@``
followed by the deleted lines (``-`` prefix) and then the inserted lines
(``+`` prefix).  A ``,len`` part is omitted when the length is 1; an empty
range is rendered with the line number just before it, so an insertion at
the very top of a file reads ``@@ -0,0 +1 @@``.  This matches what
difflib's unified diff prints for zero context lines, minus the headers.

Texts are treated as line lists: the empty string has no lines, and a
single trailing newline does not create an extra empty line.  Callers that
care about trailing-newline bytes restore them separately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .sampler import StateSequence


class DiffError(Exception):
    """Base class for diff parsing failures."""


class MalformedDecorator(DiffError):
    """A line where a hunk decorator was expected does not parse as one."""


class BodyMismatch(DiffError):
    """Hunk body lines disagree with the lengths declared in the decorator."""


class TruncatedHunk(DiffError):
    """The stream ended right after a decorator that declared content."""


def split_lines(text: str) -> list[str]:
    """Split text into lines, ignoring a single trailing newline."""
    if not text:
        return []
    parts = text.split("\n")
    if parts and parts[-1] == "":
        parts.pop()
    return parts


def join_lines(lines: Iterable[str]) -> str:
    """Inverse of split_lines: every line newline-terminated, [] -> ''.

    Terminating each line (rather than separating) keeps the round trip
    exact when the last line is empty.
    """
    return "".join(line + "\n" for line in lines)


def _format_range(start: int, length: int) -> str:
    if length == 1:
        return str(start)
    return f"{start},{length}"


@dataclass(frozen=True)
class Hunk:
    """One contiguous change.

    ``old_start`` is the 1-based first affected line of the pre-text; when
    ``old_len`` is 0 it is instead the line the insertion follows (0 means
    the insertion precedes everything).  The post-text side mirrors this.
    """

    old_start: int
    old_len: int
    new_start: int
    new_len: int
    deletions: tuple[str, ...] = ()
    insertions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.deletions) != self.old_len or len(self.insertions) != self.new_len:
            raise ValueError("hunk body does not match declared lengths")
        if self.old_len + self.new_len < 1:
            raise ValueError("hunk must delete or insert at least one line")
        if self.old_start < 0 or self.new_start < 0:
            raise ValueError("hunk positions must be non-negative")
        if self.old_len > 0 and self.old_start < 1:
            raise ValueError("a non-empty old range starts at line 1 or later")
        if self.new_len > 0 and self.new_start < 1:
            raise ValueError("a non-empty new range starts at line 1 or later")

    @property
    def decorator(self) -> str:
        return (
            f"@@ -{_format_range(self.old_start, self.old_len)}"
            f" +{_format_range(self.new_start, self.new_len)} @@"
        )

    def render(self) -> str:
        parts = [self.decorator]
        parts.extend("-" + line for line in self.deletions)
        parts.extend("+" + line for line in self.insertions)
        return "\n".join(parts)


@dataclass(frozen=True)
class EditDiff:
    """An ordered group of hunks, all positioned against one pre-text."""

    hunks: tuple[Hunk, ...]

    @property
    def rendered(self) -> str:
        return "\n".join(h.render() for h in self.hunks)

    @property
    def is_insertion_only(self) -> bool:
        return all(h.old_len == 0 for h in self.hunks)


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


def diff_states(seq: "StateSequence") -> list[EditDiff]:
    """Diff consecutive states of a backward-sampled sequence.

    Uses the states' kept-index provenance instead of a matcher: a line of
    the later state is inserted exactly when its source index is absent
    from the earlier state, so duplicate line texts can never confuse the
    alignment.  Every hunk is a pure insertion by construction.
    """
    lines = seq.lines
    states = seq.states
    diffs = []
    for prev, cur in zip(states, states[1:]):
        prev_kept = set(prev.kept_indices)
        hunks = []
        run_start = None  # position in cur of the active insertion run
        old_before = 0  # lines of prev seen so far
        run_lines: list[str] = []

        def close_run(pos: int) -> None:
            nonlocal run_start, run_lines
            if run_start is None:
                return
            hunks.append(
                Hunk(
                    old_start=old_before,
                    old_len=0,
                    new_start=run_start + 1,
                    new_len=pos - run_start,
                    insertions=tuple(run_lines),
                )
            )
            run_start = None
            run_lines = []

        for pos, idx in enumerate(cur.kept_indices):
            if idx in prev_kept:
                close_run(pos)
                old_before += 1
            else:
                if run_start is None:
                    run_start = pos
                run_lines.append(lines[idx])
        close_run(len(cur.kept_indices))
        diffs.append(EditDiff(tuple(hunks)))
    return diffs


_DECORATOR_RE = re.compile(
    r"^@@ -(?P<os>\d+)(?:,(?P<ol>\d+))? \+(?P<ns>\d+)(?:,(?P<nl>\d+))? @@(?: .*)?$"
)


def parse_diff(text: str) -> EditDiff:
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
