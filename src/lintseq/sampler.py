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
import itertools
import operator
import random
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from traceback import format_exc
from typing import Callable, Iterable, Iterator

from .corpus import SourceExample
from .diffkit import split_lines
from .lint import LintError, LinterSpec, LinterTimeout, extra_findings, get_linter

DEFAULT_MAX_LINES = 2048
#: retries per sample for a signature not yet seen, with unique_sequences
MAX_UNIQUE_ATTEMPTS = 8
# A pool task samples a batch of consecutive examples, closed at this many
# examples or once it holds this many source lines: instruction-sized
# programs share one task's submission and result transfer, while a long
# program is a task of its own, so a few long ones still spread over workers.
BATCH_EXAMPLES = 8
BATCH_LINES = 256


class SamplerError(Exception):
    pass


@dataclass(frozen=True)
class ProgramState:
    """One recorded program, as the indices of the source lines it keeps."""

    kept_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.kept_indices
        if not all(map(operator.lt, k, k[1:])):
            raise ValueError("kept_indices must be strictly increasing")


@dataclass(frozen=True)
class StateSequence:
    """States over the source ``lines``, ordered from empty to full.

    Each later state keeps a strict superset of the earlier one's lines.
    """

    lines: tuple[str, ...]
    states: tuple[ProgramState, ...]

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
    samples of one program share its scan cache and baseline findings, and
    consecutive cascade checks reuse the previous walk: each re-walks only
    the lines whose walk state the last deletions changed.
    """
    rng = rng or random.Random()
    engine = get_linter(linter or LinterSpec())
    lines, analysis, baseline = engine.setup(program)
    kept = list(range(len(lines)))
    trajectory = [tuple(kept)]
    while kept:
        del kept[rng.randrange(len(kept))]
        while kept:
            extras = extra_findings(engine.check_subset(analysis, kept), baseline)
            if not extras:
                break
            doomed = sorted({line - 1 for line, _, _ in extras if 0 < line <= len(kept)})
            if not doomed:
                # only reachable with a checker that reports lines outside
                # the candidate; without a removal the loop cannot stabilize
                raise SamplerError("finding lines fall outside the candidate; cannot stabilize")
            for pos in reversed(doomed):
                del kept[pos]
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
    """Sampling outcome for one example: sequences, or a skip reason.

    A skip for an unexpected exception also carries its formatted traceback.
    """

    example_index: int
    example: SourceExample
    sequences: tuple[StateSequence, ...] = ()
    skip_reason: str | None = None
    traceback: str | None = None


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
    sequences: list[StateSequence] = []
    seen: set[tuple] = set()
    try:
        if skip_dirty and mode == "lintseq" and get_linter(spec).check_text(program):
            return ExampleResult(example_index, example, skip_reason="source has findings")
        for sample_index in range(samples):
            attempt = 0
            while True:
                rng = random.Random(derive_seed(seed, example_index, sample_index, attempt))
                if mode == "lintseq":
                    seq = backward_sample(program, spec, rng)
                else:
                    seq = random_sample(program, rng)
                sig = seq.signature()
                if not unique_sequences or sig not in seen or attempt >= MAX_UNIQUE_ATTEMPTS:
                    seen.add(sig)
                    sequences.append(seq)
                    break
                attempt += 1
    except LinterTimeout as exc:
        return ExampleResult(example_index, example, skip_reason=f"linter timeout: {exc}")
    except SamplerError as exc:
        return ExampleResult(example_index, example, skip_reason=str(exc))
    except LintError:
        raise  # the linter cannot run at all; that fails every example alike
    except Exception as exc:
        # one bad example must not abort the run or lose the other records
        return ExampleResult(
            example_index,
            example,
            skip_reason=f"internal error: {type(exc).__name__}: {exc}",
            traceback=format_exc(),
        )
    return ExampleResult(example_index, example, sequences=tuple(sequences))


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
) -> Iterator[ExampleResult]:
    """Sample every example, yielding results in corpus order.

    Tasks are independent and individually seeded, so any worker count
    produces identical output.  With ``workers`` above 1 a process pool
    runs one task per batch of consecutive examples (see ``BATCH_EXAMPLES``
    and ``BATCH_LINES``); at most ``2 * workers`` submitted tasks are
    waiting to be yielded, so examples are pulled from ``examples`` only
    as results are consumed.
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
    if mode == "lintseq":
        get_linter(spec)  # a bad command template fails the run, not each example
    task = partial(
        _sample_example,
        spec=spec,
        mode=mode,
        samples=samples_per_example,
        seed=seed,
        unique_sequences=unique_sequences,
        skip_dirty=skip_dirty,
        max_lines=max_lines,
    )
    if workers <= 1:
        yield from map(task, itertools.count(), examples)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    window: deque[Future[list[ExampleResult]]] = deque()
    try:
        for batch in _batches(examples):
            window.append(pool.submit(_sample_batch, task, batch))
            if len(window) > 2 * workers:
                yield from window.popleft().result()
        while window:
            yield from window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _batches(examples: Iterable[SourceExample]) -> Iterator[list[tuple[int, SourceExample]]]:
    """(index, example) pairs in corpus order, cut into pool tasks."""
    batch: list[tuple[int, SourceExample]] = []
    lines = 0
    for item in enumerate(examples):
        batch.append(item)
        lines += item[1].line_count
        if len(batch) == BATCH_EXAMPLES or lines >= BATCH_LINES:
            yield batch
            batch, lines = [], 0
    if batch:
        yield batch


def _sample_batch(
    task: Callable[[int, SourceExample], ExampleResult], batch: list[tuple[int, SourceExample]]
) -> list[ExampleResult]:
    return [task(index, example) for index, example in batch]
