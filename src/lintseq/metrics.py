"""Dataset statistics, lint-error rates, pass@k, and FLOPs accounting."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from statistics import fmean
from typing import Iterable, Sequence

from .corpus import EditSequenceRecord
from .diffkit import split_lines
from .lint import LintError, LinterSpec, check


def _histogram(values: Sequence[int]) -> dict[int, int]:
    return dict(sorted(Counter(values).items()))


def _mean(values: Sequence[int]) -> float:
    return fmean(values) if values else 0.0


@dataclass(frozen=True)
class DatasetStats:
    """Shape of a generated dataset; histograms bucket by integer value."""

    example_count: int
    sequence_count: int
    lines_per_example: dict[int, int]
    edits_per_sequence: dict[int, int]
    chars_per_training_text: dict[int, int]
    mean_lines_per_example: float
    mean_edits_per_sequence: float
    mean_chars_per_training_text: float

    def to_dict(self) -> dict:
        def block(hist: dict[int, int], mean: float) -> dict:
            return {
                "mean": mean,
                "histogram": {str(k): v for k, v in hist.items()},
            }

        return {
            "example_count": self.example_count,
            "sequence_count": self.sequence_count,
            "lines_per_example": block(
                self.lines_per_example, self.mean_lines_per_example
            ),
            "edits_per_sequence": block(
                self.edits_per_sequence, self.mean_edits_per_sequence
            ),
            "chars_per_training_text": block(
                self.chars_per_training_text, self.mean_chars_per_training_text
            ),
        }


def dataset_stats(records: Iterable[EditSequenceRecord]) -> DatasetStats:
    """Aggregate over records; an empty input yields zeroed stats.

    Lines are counted once per distinct source example; edits and
    training-text sizes are counted once per sequence.
    """
    lines: list[int] = []
    edits: list[int] = []
    chars: list[int] = []
    seen: set[str] = set()
    for rec in records:
        if rec.source_id not in seen:
            seen.add(rec.source_id)
            lines.append(len(split_lines(rec.program)))
        edits.append(rec.num_edits)
        chars.append(len(rec.training_text))
    return DatasetStats(
        example_count=len(seen),
        sequence_count=len(edits),
        lines_per_example=_histogram(lines),
        edits_per_sequence=_histogram(edits),
        chars_per_training_text=_histogram(chars),
        mean_lines_per_example=_mean(lines),
        mean_edits_per_sequence=_mean(edits),
        mean_chars_per_training_text=_mean(chars),
    )


def pass_at_k(n: int, c: int, k: int) -> float:
    """Probability that at least one of k drawn samples is correct.

    Unbiased estimator 1 - C(n-c, k)/C(n, k), computed with the stable
    product form so large n never overflows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= c <= n:
        raise ValueError("c must satisfy 0 <= c <= n")
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    prob_none = 1.0
    for i in range(n - c + 1, n + 1):
        prob_none *= 1.0 - k / i
    return 1.0 - prob_none


@dataclass(frozen=True)
class FlopsModel:
    """Inference cost inputs: parameters N, layers L, context C, tokens T,
    samples per problem K, and problem count M."""

    n_params: int
    n_layers: int
    context: int
    avg_tokens_per_sample: float = 1.0
    samples_per_problem: int = 1
    problems: int = 1

    def __post_init__(self) -> None:
        for name in ("n_params", "n_layers", "context", "samples_per_problem", "problems"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not self.avg_tokens_per_sample > 0:
            raise ValueError("avg_tokens_per_sample must be positive")


def flops_per_token(model: FlopsModel) -> int:
    """2 * (N + 2 * L * C) forward-pass FLOPs for one generated token."""
    return 2 * (model.n_params + 2 * model.n_layers * model.context)


def total_flops(model: FlopsModel) -> float | int:
    """Per-token cost scaled by tokens per sample, samples, and problems."""
    return (
        flops_per_token(model)
        * model.samples_per_problem
        * model.problems
        * model.avg_tokens_per_sample
    )


@dataclass(frozen=True)
class LintErrorRate:
    rate: float
    checked: int
    flagged: int
    failures: int
    per_code: dict[str, int]

    def to_dict(self) -> dict:
        return asdict(self)


def lint_error_rate(
    programs: Iterable[str], linter: LinterSpec | None = None
) -> LintErrorRate:
    """Fraction of programs with at least one finding, plus finding counts
    by code.  Programs the linter cannot process are excluded from the
    denominator and tallied as failures; if nothing could be checked the
    rate is undefined and this raises.
    """
    checked = flagged = failures = 0
    per_code: Counter[str] = Counter()
    for program in programs:
        try:
            found = check(program, linter)
        except LintError:
            failures += 1
            continue
        checked += 1
        if found:
            flagged += 1
            per_code.update(code for _, code, _ in found)
    if checked == 0:
        raise ValueError("no programs could be checked; lint error rate undefined")
    return LintErrorRate(
        rate=flagged / checked,
        checked=checked,
        flagged=flagged,
        failures=failures,
        per_code=dict(sorted(per_code.items())),
    )
