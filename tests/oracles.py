"""Independent oracles the tests judge the package against."""

from difflib import unified_diff

from lintseq.diffkit import join_lines, split_lines
from lintseq.lint import check, extra_findings


def reference_render(before: str, after: str) -> str:
    """Render via difflib's unified diff, headers stripped."""
    out = list(unified_diff(split_lines(before), split_lines(after), n=0, lineterm=""))
    return "\n".join(out[2:]) if out else ""


def state_texts(seq) -> list[str]:
    """Program text of every state of a StateSequence, from its kept indices."""
    return [join_lines(seq.lines[i] for i in s.kept_indices) for s in seq.states]


def is_error_free_relative(candidate: str, baseline_report, linter=None) -> bool:
    """True when the candidate has no finding beyond the baseline multiset.

    This is the law the sampler applies (``lint.extra_findings``): a
    candidate may lose baseline findings, so the empty program of a dirty
    source passes, but never gain one.
    """
    return not extra_findings(check(candidate, linter), baseline_report)
