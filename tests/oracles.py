"""Independent oracles the tests judge the package against."""

from difflib import SequenceMatcher, unified_diff

from lintseq.diffkit import EditDiff, Hunk, join_lines, split_lines
from lintseq.editcodec import resolve, restore_final_newline
from lintseq.lint import LinterSpec, extra_findings, get_linter


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
    """Program text of every state of a StateSequence, from its kept indices."""
    return [join_lines(seq.lines[i] for i in s.kept_indices) for s in seq.states]


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


def resolve_record(record) -> str:
    """Resolve a record's training text to the exact source bytes."""
    return restore_final_newline(resolve(record.training_text), record.program)
