"""Turn edit sequences into training strings and back into programs.

The serialized layout puts the separator token on its own line before
each edit, with the rendered diff starting on the next line:

    <|diff|>
    @@ -0,0 +1 @@
    +x = 1
    <|diff|>
    @@ -1 +1,2 @@
    ...

Splitting is line-anchored: the token only counts as a separator when it
occupies a whole line.  Diff body lines always carry a ``+``/``-`` prefix
and decorators start with ``@@``, so program text that happens to contain
the token can never split an edit apart.

Resolution folds ``apply`` over the edits, one line list from the empty
program on; text is joined only where it is returned.  ``resolve`` is
strict and raises on the first bad edit; ``resolve_stream`` applies the
longest well-formed prefix and reports where the stream went wrong, which
is the right behavior for raw model output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .diffkit import DiffError, EditDiff, join_lines, parse_diff

DEFAULT_SEPARATOR = "<|diff|>"


class ApplyConflict(DiffError):
    """A hunk does not fit the text it is being applied to."""


class ResolveError(DiffError):
    """An edit in a stream failed to parse or apply; 0-based edit_index."""

    def __init__(self, edit_index: int, cause: Exception):
        super().__init__(f"edit {edit_index + 1}: {cause}")
        self.edit_index = edit_index
        self.cause = cause


def check_separator(separator: str) -> None:
    if not separator:
        raise ValueError("separator must not be empty")
    if "\n" in separator:
        raise ValueError("separator must not contain newlines")


def serialize(edits: Sequence[EditDiff | str], separator: str = DEFAULT_SEPARATOR) -> str:
    """Join rendered edits into one training string."""
    check_separator(separator)
    if not edits:
        raise ValueError("serialize requires at least one edit")
    rendered = [e if isinstance(e, str) else e.rendered for e in edits]
    for r in rendered:
        if separator in r.split("\n"):
            raise ValueError("separator token collides with an edit body line")
    return "\n".join(f"{separator}\n{r}" for r in rendered)


def split_serialized(text: str, separator: str = DEFAULT_SEPARATOR) -> list[str]:
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


def apply(lines: Sequence[str], edit: EditDiff) -> list[str]:
    """Apply one edit to a program's lines; all hunks address the same lines.

    Returns a new list, so a conflicting edit leaves ``lines`` as it was.
    """
    out: list[str] = []
    cursor = 0  # next pre-edit line not yet emitted
    for hi, hunk in enumerate(edit.hunks):
        anchor = hunk.old_start - 1 if hunk.old_len else hunk.old_start
        if anchor < cursor:
            raise ApplyConflict(f"hunk {hi + 1} overlaps or precedes an earlier hunk")
        if anchor + hunk.old_len > len(lines):
            raise ApplyConflict(
                f"hunk {hi + 1} falls outside the text "
                f"(wants lines through {anchor + hunk.old_len} of {len(lines)})"
            )
        out.extend(lines[cursor:anchor])
        for k, expect in enumerate(hunk.deletions, anchor):
            if lines[k] != expect:
                raise ApplyConflict(
                    f"hunk {hi + 1}: deletion mismatch at line {k + 1}: "
                    f"expected {expect!r}, found {lines[k]!r}"
                )
        cursor = anchor + hunk.old_len
        out.extend(hunk.insertions)
    out.extend(lines[cursor:])
    return out


def _iter_states(parts: Iterable[str]) -> Iterator[list[str]]:
    lines: list[str] = []
    for idx, part in enumerate(parts):
        try:
            lines = apply(lines, parse_diff(part))
        except DiffError as exc:
            raise ResolveError(idx, exc) from exc
        yield lines


def resolve(edit_text: str, separator: str = DEFAULT_SEPARATOR) -> str:
    """Resolve a full edit stream to its final program (strict)."""
    lines: list[str] = []
    for lines in _iter_states(split_serialized(edit_text, separator)):
        pass
    return join_lines(lines)


def resolve_prefixes(edit_text: str, separator: str = DEFAULT_SEPARATOR) -> list[str]:
    """Program text after each edit; length equals the number of edits."""
    return [join_lines(lines) for lines in _iter_states(split_serialized(edit_text, separator))]


@dataclass(frozen=True)
class ResolveFailure:
    edit_index: int
    kind: str
    message: str


@dataclass(frozen=True)
class ResolveOutcome:
    program: str
    applied: int
    failure: ResolveFailure | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def resolve_stream(edit_text: str, separator: str = DEFAULT_SEPARATOR) -> ResolveOutcome:
    """Apply the longest well-formed prefix of a possibly malformed stream."""
    lines: list[str] = []
    applied = 0
    failure = None
    try:
        # a failing edit leaves ``lines`` at the last state that applied
        for lines in _iter_states(split_serialized(edit_text, separator)):
            applied += 1
    except ResolveError as exc:
        failure = ResolveFailure(exc.edit_index, type(exc.cause).__name__, str(exc.cause))
    return ResolveOutcome(program=join_lines(lines), applied=applied, failure=failure)


def restore_final_newline(text: str, program: str) -> str:
    """Match resolved text to its source program's final newline.

    Resolution yields newline-terminated text; a source that lacked a
    final newline gets that one terminator stripped back off.
    """
    if text and not program.endswith("\n"):
        return text[:-1]
    return text
