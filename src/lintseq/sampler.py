"""Backward sampling of edit trajectories.

One trajectory is built by repeatedly deleting lines from the full
program until nothing is left, recording the stabilized program after
each step.  A step deletes one line chosen uniformly at random over the
current lines (blank and comment lines included), then repeatedly checks
the result and removes every line carrying a finding not present in the
original program's report, until no new findings remain.  A step can
therefore erase many lines at once; cascading all the way to the empty
program just means the trajectory start was reached.  Read in reverse,
the recorded states grow monotonically from empty to the full program,
and every state lints clean relative to the source.

The ablation variant skips the checker entirely: a step deletes a
uniformly sized uniform subset of the current lines.

Sampling is deterministic: the RNG for each (example, sample) task is
seeded via ``derive_seed`` from the (global seed, example index, sample
index) triple alone, so results do not depend on scheduling or worker
count.
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

from .corpus import SourceExample
from .diffkit import split_lines
from .lint import LinterSpec, LinterTimeout, extra_findings, get_linter

DEFAULT_MAX_LINES = 2048


class SamplerError(Exception):
    pass


@dataclass(frozen=True)
class ProgramState:
    """One recorded program, as the indices of the source lines it keeps."""

    kept_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.kept_indices, self.kept_indices[1:])):
            raise ValueError("kept_indices must be strictly increasing")


@dataclass(frozen=True)
class StateSequence:
    """States over the source ``lines``, ordered from empty to full.

    Each later state keeps a strict superset of the earlier one's lines.
    """

    lines: tuple[str, ...]
    states: tuple[ProgramState, ...]

    @property
    def num_edits(self) -> int:
        return len(self.states) - 1

    def signature(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.kept_indices for s in self.states)


def derive_seed(
    global_seed: int, example_index: int, sample_index: int, attempt: int = 0
) -> int:
    """Stable per-task RNG seed.

    The big-endian integer of sha256 over the decimal string
    ``"<global>:<example>:<sample>"``, with ``":<attempt>"`` appended only
    for uniqueness-retry attempts greater than zero.  The construction is
    part of the output contract (recorded seed paths must replay), so it
    must not change between releases.
    """
    tag = f"{global_seed}:{example_index}:{sample_index}"
    if attempt:
        tag += f":{attempt}"
    return int.from_bytes(hashlib.sha256(tag.encode("ascii")).digest(), "big")


def _states_from_trajectory(
    lines: tuple[str, ...], trajectory: list[tuple[int, ...]]
) -> StateSequence:
    # trajectory holds kept-index tuples from full to empty; emit forward order
    return StateSequence(lines, tuple(ProgramState(kept) for kept in reversed(trajectory)))


def backward_sample(
    program: str,
    linter: LinterSpec | None = None,
    rng: random.Random | None = None,
) -> StateSequence:
    """Sample one linter-guided deletion trajectory, returned forward.

    The engine keeps the setup of the last program it saw, so repeated
    samples of one program share its scan cache and baseline report.
    """
    rng = rng or random.Random()
    engine = get_linter(linter or LinterSpec())
    lines, analysis, baseline = engine.setup(program)
    kept = list(range(len(lines)))
    trajectory = [tuple(kept)]
    while kept:
        del kept[rng.randrange(len(kept))]
        while kept:
            report = engine.check_subset(analysis, kept)
            extras = extra_findings(report, baseline)
            if not extras:
                break
            doomed = sorted({f.line - 1 for f in extras}, reverse=True)
            removed = 0
            for pos in doomed:
                if 0 <= pos < len(kept):
                    del kept[pos]
                    removed += 1
            if not removed:
                # only reachable with a checker that reports lines outside
                # the candidate; without a removal the loop cannot stabilize
                raise SamplerError(
                    "finding lines fall outside the candidate; cannot stabilize"
                )
        trajectory.append(tuple(kept))
    return _states_from_trajectory(lines, trajectory)


def random_sample(program: str, rng: random.Random | None = None) -> StateSequence:
    """Ablation trajectory: delete a uniform-size uniform subset per step."""
    rng = rng or random.Random()
    lines = tuple(split_lines(program))
    kept = list(range(len(lines)))
    trajectory = [tuple(kept)]
    while kept:
        k = rng.randint(1, len(kept))
        doomed = sorted(rng.sample(range(len(kept)), k), reverse=True)
        for pos in doomed:
            del kept[pos]
        trajectory.append(tuple(kept))
    return _states_from_trajectory(lines, trajectory)


@dataclass(frozen=True)
class ExampleResult:
    """Sampling outcome for one example: sequences, or a skip reason."""

    example_index: int
    example: SourceExample
    sequences: tuple[StateSequence, ...] = ()
    skip_reason: str | None = None


def _sample_example(
    example_index: int,
    example: SourceExample,
    spec: LinterSpec,
    mode: str,
    samples: int,
    seed: int,
    unique_sequences: bool,
    skip_dirty: bool,
    max_lines: int,
    max_attempts: int,
) -> ExampleResult:
    program = example.program
    if not program.strip():
        return ExampleResult(example_index, example, skip_reason="empty program")
    if example.line_count > max_lines:
        return ExampleResult(
            example_index,
            example,
            skip_reason=f"{example.line_count} lines exceeds the {max_lines}-line guard",
        )
    if skip_dirty and mode == "lintseq":
        if not get_linter(spec).check_text(program).is_clean:
            return ExampleResult(example_index, example, skip_reason="source has findings")
    sequences: list[StateSequence] = []
    seen: set[tuple] = set()
    try:
        for sample_index in range(samples):
            attempt = 0
            while True:
                rng = random.Random(derive_seed(seed, example_index, sample_index, attempt))
                if mode == "lintseq":
                    seq = backward_sample(program, spec, rng)
                else:
                    seq = random_sample(program, rng)
                sig = seq.signature()
                if not unique_sequences or sig not in seen or attempt >= max_attempts:
                    seen.add(sig)
                    sequences.append(seq)
                    break
                attempt += 1
    except LinterTimeout as exc:
        return ExampleResult(example_index, example, skip_reason=f"linter timeout: {exc}")
    except SamplerError as exc:
        return ExampleResult(example_index, example, skip_reason=str(exc))
    return ExampleResult(example_index, example, sequences=tuple(sequences))


def _sample_task(args: tuple) -> ExampleResult:
    return _sample_example(*args)


def sample_corpus(
    examples: Iterable[SourceExample],
    linter: LinterSpec | None = None,
    *,
    mode: str = "lintseq",
    samples_per_example: int = 5,
    seed: int = 0,
    workers: int = 1,
    unique_sequences: bool = False,
    skip_dirty: bool = False,
    max_lines: int = DEFAULT_MAX_LINES,
    max_unique_attempts: int = 8,
) -> Iterator[ExampleResult]:
    """Sample every example, yielding results in corpus order.

    Tasks are independent and individually seeded, so any worker count
    produces identical output; with ``workers`` above 1 a process pool
    runs examples concurrently and this generator restores ordering.
    """
    if mode not in ("lintseq", "randseq"):
        raise ValueError(f"unknown sampling mode: {mode!r}")
    if samples_per_example < 1:
        raise ValueError("samples_per_example must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if max_lines < 1:
        raise ValueError("max_lines must be at least 1")
    spec = linter or LinterSpec()
    tasks = (
        (
            index,
            example,
            spec,
            mode,
            samples_per_example,
            seed,
            unique_sequences,
            skip_dirty,
            max_lines,
            max_unique_attempts,
        )
        for index, example in enumerate(examples)
    )
    if workers <= 1:
        for args in tasks:
            yield _sample_task(args)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_sample_task, tasks, chunksize=8)
