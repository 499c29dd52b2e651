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

A record is read as one line list: the training text is split on
newlines once, each edit is the slice between separator lines, and
``parse_diff`` reads that slice.  Generated records and raw model output
take this same path.  Resolution folds ``apply`` over the edits, editing
one line list in place from the empty program on; text is joined only
where it is returned.  ``resolve`` is strict and raises on the first bad
edit; ``resolve_stream`` applies the longest well-formed prefix and
reports where the stream went wrong, which is the right behavior for raw
model output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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


def _parts(text: str, separator: str) -> Iterator[list[str]]:
    """Each edit of a training string, as its list of lines.

    The text is split into lines once.  A part is a run of lines between
    separator lines (or the start or end of the text) without blank lines
    at either end; a run of blank lines is no part.
    """
    check_separator(separator)
    lines = text.split("\n")
    lines.append(separator)  # so every part ends at a separator line
    start = 0
    while start < len(lines):
        stop = lines.index(separator, start)
        while start < stop and not lines[start]:
            start += 1
        end = stop
        while end > start and not lines[end - 1]:
            end -= 1
        if start < end:
            yield lines[start:end]
        start = stop + 1


def split_serialized(text: str, separator: str = DEFAULT_SEPARATOR) -> list[str]:
    """Split a training string into per-edit diff texts.

    Text before the first separator (including text with no separator at
    all) is kept as a leading raw diff, so bare diff streams resolve too.
    These are the parts the resolvers read, joined back into text: blank
    lines at either end of a part, and blank parts, are dropped.
    """
    return ["\n".join(part) for part in _parts(text, separator)]


def apply(lines: list[str], edit: EditDiff) -> list[str]:
    """Apply one edit to a program's lines in place; all hunks address the same lines.

    Every hunk is checked against ``lines`` before any is spliced in, so a
    conflicting edit leaves ``lines`` as it was.  The hunks are then
    spliced in last first, which keeps the earlier ones' line numbers
    valid.  Returns ``lines``.
    """
    cursor = 0  # first pre-edit line after the last hunk checked
    for hi, (old_start, old_len, _, _, deletions, _) in enumerate(edit.hunks, 1):
        anchor = old_start - 1 if old_len else old_start
        if anchor < cursor:
            raise ApplyConflict(f"hunk {hi} overlaps or precedes an earlier hunk")
        cursor = anchor + old_len
        if cursor > len(lines):
            raise ApplyConflict(
                f"hunk {hi} falls outside the text "
                f"(wants lines through {cursor} of {len(lines)})"
            )
        for k, expect in enumerate(deletions, anchor):
            if lines[k] != expect:
                raise ApplyConflict(
                    f"hunk {hi}: deletion mismatch at line {k + 1}: "
                    f"expected {expect!r}, found {lines[k]!r}"
                )
    for old_start, old_len, _, _, _, insertions in reversed(edit.hunks):
        anchor = old_start - 1 if old_len else old_start
        lines[anchor:anchor + old_len] = insertions
    return lines


def _iter_states(edit_text: str, separator: str) -> Iterator[list[str]]:
    """The program's one line list after each edit; it changes in place."""
    lines: list[str] = []
    for idx, part in enumerate(_parts(edit_text, separator)):
        try:
            apply(lines, parse_diff(part))
        except DiffError as exc:
            raise ResolveError(idx, exc) from exc
        yield lines


def resolve(edit_text: str, separator: str = DEFAULT_SEPARATOR) -> str:
    """Resolve a full edit stream to its final program (strict)."""
    lines: list[str] = []
    for lines in _iter_states(edit_text, separator):
        pass
    return join_lines(lines)


def resolve_prefixes(edit_text: str, separator: str = DEFAULT_SEPARATOR) -> list[str]:
    """Program text after each edit; length equals the number of edits."""
    return [join_lines(lines) for lines in _iter_states(edit_text, separator)]


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
        for lines in _iter_states(edit_text, separator):
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
