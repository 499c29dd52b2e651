"""Dataset statistics, lint-error rates, pass@k, and FLOPs accounting."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable

from .corpus import EditSequenceRecord
from .diffkit import split_lines
from .lint import LintError, LinterSpec, check


def _histogram_mean(hist: dict[int, int]) -> float:
    # exact integer sums: the same float as fmean over the counted values below 2**53
    count = sum(hist.values())
    return sum(value * n for value, n in hist.items()) / count if count else 0.0


@dataclass(frozen=True)
class DatasetStats:
    """Shape of a generated dataset; histograms bucket by integer value."""

    example_count: int
    sequence_count: int
    lines_per_example: dict[int, int]
    edits_per_sequence: dict[int, int]
    chars_per_training_text: dict[int, int]

    @property
    def mean_lines_per_example(self) -> float:
        return _histogram_mean(self.lines_per_example)

    @property
    def mean_edits_per_sequence(self) -> float:
        return _histogram_mean(self.edits_per_sequence)

    @property
    def mean_chars_per_training_text(self) -> float:
        return _histogram_mean(self.chars_per_training_text)

    def to_dict(self) -> dict:
        def block(hist: dict[int, int]) -> dict:
            return {
                "mean": _histogram_mean(hist),
                "histogram": {str(k): v for k, v in hist.items()},
            }

        return {
            "example_count": self.example_count,
            "sequence_count": self.sequence_count,
            "lines_per_example": block(self.lines_per_example),
            "edits_per_sequence": block(self.edits_per_sequence),
            "chars_per_training_text": block(self.chars_per_training_text),
        }


def dataset_stats(records: Iterable[EditSequenceRecord]) -> DatasetStats:
    """Aggregate over records; an empty input yields zeroed stats.

    Lines are counted once per distinct source example; edits and
    training-text sizes are counted once per sequence.
    """
    lines: Counter[int] = Counter()
    edits: Counter[int] = Counter()
    chars: Counter[int] = Counter()
    seen: set[str] = set()
    for rec in records:
        if rec.source_id not in seen:
            seen.add(rec.source_id)
            lines[len(split_lines(rec.program))] += 1
        edits[rec.num_edits] += 1
        chars[len(rec.training_text)] += 1
    return DatasetStats(
        example_count=len(seen),
        sequence_count=edits.total(),
        lines_per_example=dict(sorted(lines.items())),
        edits_per_sequence=dict(sorted(edits.items())),
        chars_per_training_text=dict(sorted(chars.items())),
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
        if not 0 < self.avg_tokens_per_sample < math.inf:
            raise ValueError("avg_tokens_per_sample must be a finite positive number")


def flops_per_token(model: FlopsModel) -> int:
    """2 * (N + 2 * L * C) forward-pass FLOPs for one generated token."""
    return 2 * (model.n_params + 2 * model.n_layers * model.context)


def total_flops(model: FlopsModel) -> float | int:
    """Per-token cost scaled by tokens per sample, samples, and problems.

    Raises ValueError when a float result would not be finite.
    """
    total = flops_per_token(model) * model.samples_per_problem * model.problems
    try:
        total *= model.avg_tokens_per_sample
    except OverflowError:  # an int too large to convert to float
        total = math.inf
    if total == math.inf:
        raise ValueError("total FLOPs do not fit in a float")
    return total


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
    rate is undefined and this raises, naming the first failure.
    """
    checked = flagged = failures = 0
    per_code: Counter[str] = Counter()
    first_failure: LintError | None = None
    for program in programs:
        try:
            found = check(program, linter)
        except LintError as exc:
            failures += 1
            first_failure = first_failure or exc
            continue
        checked += 1
        if found:
            flagged += 1
            per_code.update(code for _, code, _ in found)
    if checked == 0:
        cause = f"; first failure: {first_failure}" if first_failure else ""
        raise ValueError(
            f"no programs could be checked; lint error rate undefined{cause}"
        ) from first_failure
    return LintErrorRate(
        rate=flagged / checked,
        checked=checked,
        flagged=flagged,
        failures=failures,
        per_code=dict(sorted(per_code.items())),
    )
