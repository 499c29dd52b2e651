"""Zero-context line diffs: construction, rendering, parsing.

Diffs are built by ``diff_states``, which places each edit of a sampled
``StateSequence`` by the source indices it inserts, so every hunk is a
pure insertion.  ``parse_diff`` reads any rendered diff back, including
the deletions and replacements that raw model output may carry.

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
from bisect import bisect_left, insort
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

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
    lines = list(lines)
    return "\n".join(lines) + "\n" if lines else ""


class Hunk(namedtuple("Hunk", "old_start old_len new_start new_len deletions insertions")):
    """One contiguous change.

    ``old_start`` is the 1-based first affected line of the pre-text; when
    ``old_len`` is 0 it is instead the line the insertion follows (0 means
    the insertion precedes everything).  The post-text side mirrors this.

    A hunk is a tuple of its six fields, so it compares equal to a plain
    tuple of the same values.  Building one checks the fields; ``parse_diff``
    has made the same checks already and builds its hunks without them.
    """

    __slots__ = ()

    def __new__(
        cls,
        old_start: int,
        old_len: int,
        new_start: int,
        new_len: int,
        deletions: tuple[str, ...] = (),
        insertions: tuple[str, ...] = (),
    ) -> "Hunk":
        if len(deletions) != old_len or len(insertions) != new_len:
            raise ValueError("hunk body does not match declared lengths")
        if old_len + new_len < 1:
            raise ValueError("hunk must delete or insert at least one line")
        if old_start < 0 or new_start < 0:
            raise ValueError("hunk positions must be non-negative")
        if old_len > 0 and old_start < 1:
            raise ValueError("a non-empty old range starts at line 1 or later")
        if new_len > 0 and new_start < 1:
            raise ValueError("a non-empty new range starts at line 1 or later")
        return tuple.__new__(cls, (old_start, old_len, new_start, new_len, deletions, insertions))

    @property
    def decorator(self) -> str:
        # a range of length 1 is written as its start alone
        old, old_len, new, new_len, _, _ = self
        if old_len != 1:
            old = f"{old},{old_len}"
        if new_len != 1:
            new = f"{new},{new_len}"
        return f"@@ -{old} +{new} @@"

    def render(self) -> str:
        text = self.decorator
        if self.deletions:
            text += "\n-" + "\n-".join(self.deletions)
        if self.insertions:
            text += "\n+" + "\n+".join(self.insertions)
        return text


@dataclass(frozen=True)
class EditDiff:
    """An ordered group of hunks, all positioned against one pre-text."""

    hunks: tuple[Hunk, ...]

    @property
    def rendered(self) -> str:
        return "\n".join([h.render() for h in self.hunks])


def diff_states(seq: "StateSequence") -> list[EditDiff]:
    """Diff consecutive states of a backward-sampled sequence.

    Walks the edits with one growing list of kept source indices instead
    of a matcher: a run of an edit's indices at adjacent places in the list
    is one hunk, so duplicate line texts can never confuse the alignment.
    Every hunk is a pure insertion by construction.
    """
    lines = seq.lines
    kept: list[int] = []
    diffs = []
    for inserted in seq.inserted:
        for index in inserted:
            insort(kept, index)
        hunks = []
        n = len(inserted)
        i = 0
        while i < n:
            # a run of inserted indices at adjacent places in kept; the
            # old text lacks the i lines this edit inserts before it
            first = i
            old_start = bisect_left(kept, inserted[i]) - i
            run = [lines[inserted[i]]]
            i += 1
            while i < n and kept[old_start + i] == inserted[i]:
                run.append(lines[inserted[i]])
                i += 1
            hunks.append(Hunk(old_start, 0, old_start + first + 1, i - first, (), tuple(run)))
        diffs.append(EditDiff(tuple(hunks)))
    return diffs


# ASCII digits only: ``int`` would also read other scripts' digits
_DECORATOR_RE = re.compile(
    r"@@ -([0-9]+)(?:,([0-9]+))? \+([0-9]+)(?:,([0-9]+))? @@(?: .*)?"
)

_new_hunk = tuple.__new__  # builds a Hunk without the checks parse_diff has made


def parse_diff(diff: str | Sequence[str]) -> EditDiff:
    """Parse a rendered diff, given as text or as its list of lines, back into hunks.

    Accepts the canonical rendering plus tolerant variants: an omitted
    ``,len`` (meaning 1), trailing annotation after the closing ``@@``, and
    blank lines around a text (a list of lines is read as it is).  Raises
    MalformedDecorator, TruncatedHunk, or BodyMismatch; an empty or blank
    text parses as a diff with no hunks.  Each hunk body is one slice of
    the lines, checked and stripped of its prefixes whole.
    """
    if isinstance(diff, str):
        diff = diff.strip("\n")
        lines = diff.split("\n") if diff else []
    else:
        lines = diff
    n = len(lines)
    hunks = []
    i = 0
    while i < n:
        head = lines[i]
        m = _DECORATOR_RE.fullmatch(head)
        if m is None:
            raise MalformedDecorator(f"not a hunk decorator: {head!r}")
        old_start, old_len, new_start, new_len = m.groups()
        try:
            old_start = int(old_start)
            old_len = int(old_len) if old_len else 1
            new_start = int(new_start)
            new_len = int(new_len) if new_len else 1
        except ValueError:  # more digits than ``int`` converts
            raise MalformedDecorator(f"line number too long: {head!r}") from None
        if old_len + new_len == 0:
            raise MalformedDecorator(f"hunk declares no content: {head!r}")
        if (old_len > 0 and old_start < 1) or (new_len > 0 and new_start < 1):
            raise MalformedDecorator(f"non-empty range starting at 0: {head!r}")
        start = i + 1
        if start >= n:
            raise TruncatedHunk(f"stream ends after decorator {head!r}")
        mid = start + old_len
        i = mid + new_len
        deletions = _body(lines, start, mid, "-") if old_len else ()
        insertions = _body(lines, mid, i, "+") if new_len else ()
        hunks.append(_new_hunk(Hunk, (old_start, old_len, new_start, new_len, deletions, insertions)))
    return EditDiff(tuple(hunks))


def _body(lines: Sequence[str], start: int, stop: int, prefix: str) -> tuple[str, ...]:
    """``lines[start:stop]`` without their ``prefix``, which each must carry."""
    body = lines[start:stop]
    text = "\n".join(body)
    sep = "\n" + prefix
    # a body of n lines holds n - 1 newlines, so all of them start a line
    if body and (text[:1] != prefix or text.count(sep) != len(body) - 1):
        bad = next(line for line in body if not line.startswith(prefix))
        raise BodyMismatch(f"expected a {prefix!r} body line, got {bad!r}")
    if stop > len(lines):
        raise BodyMismatch(f"hunk {lines[-1]!r}: body shorter than declared")
    return tuple(text[1:].split(sep))
