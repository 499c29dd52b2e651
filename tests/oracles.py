"""Independent oracles the tests judge the package against."""

from difflib import SequenceMatcher, unified_diff

from lintseq.diffkit import DiffError, EditDiff, Hunk, join_lines, parse_diff, split_lines
from lintseq.editcodec import (
    ApplyConflict,
    ResolveError,
    resolve,
    resolve_prefixes,
    resolve_stream,
    restore_final_newline,
    split_serialized,
)
from lintseq.lint import LinterSpec, extra_findings, get_linter
from lintseq.pycheck import check_lines, flow


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
    """The program's sorted (line, code, message) triples, as the sampler sees them."""
    return get_linter(linter or LinterSpec()).setup(program)[2]


def is_error_free_relative(candidate: str, baseline, linter=None) -> bool:
    """True when the candidate has no finding beyond the baseline multiset.

    This is the law the sampler applies (``lint.extra_findings``): a
    candidate may lose baseline findings, so the empty program of a dirty
    source passes, but never gain one.  ``baseline`` is the source's
    ``findings``.
    """
    return not extra_findings(findings(candidate, linter), baseline)


def flow_checked(analysis, kept: list[int], deleted=()) -> list[tuple[int, str, str]]:
    """``flow`` on ``analysis``, asserted equal to ``check_lines`` on the candidate.

    ``kept`` is the caller's own list of the source indices the Analysis
    keeps: the deleted ones are taken out of it in place, and it must equal
    ``analysis.kept``.  The findings must be those of a cold check of the
    lines left, each candidate line ``n`` mapped to source line
    ``kept[n - 1] + 1``.
    """
    deleted = list(deleted)
    got = flow(analysis, deleted)
    gone = set(deleted)
    kept[:] = [i for i in kept if i not in gone]
    assert analysis.kept == kept, (deleted, kept)
    cold = check_lines([analysis.lines[i] for i in kept])
    assert got == [(kept[n - 1] + 1, code, msg) for n, code, msg in cold], (deleted, kept)
    return got


def resolve_record(record) -> str:
    """Resolve a record's training text to the exact source bytes."""
    return restore_final_newline(resolve(record.training_text), record.program)


def reference_apply(text: str, edit: EditDiff | str) -> str:
    """Apply one edit to program text, re-splitting and re-joining it whole.

    The text-level resolver step the line-list ``editcodec.apply`` replaced;
    output is newline-terminated, input may or may not be.
    """
    if isinstance(edit, str):
        edit = parse_diff(edit)
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
    """Fold ``reference_apply`` over a stream's parts from the empty program.

    Returns the text after each edit that applied and, if an edit failed,
    its ``(edit_index, kind, message)``; else None.
    """
    texts = []
    text = ""
    for idx, part in enumerate(split_serialized(edit_text)):
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
    assert (f and (f.edit_index, f.kind, f.message)) == failure
    try:
        prefixes = resolve_prefixes(edit_text)
    except ResolveError as exc:
        assert (exc.edit_index, type(exc.cause).__name__, str(exc.cause)) == failure
    else:
        assert failure is None and prefixes == texts
