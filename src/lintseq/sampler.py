"""Backward sampling of edit trajectories.

One trajectory is built by repeatedly deleting lines from the full
program until nothing is left, recording the source lines each step
deleted.  A step deletes one line chosen uniformly at random over the
current lines (blank and comment lines included); the linter engine's
``step`` then repeatedly checks the result and removes every line
carrying a finding not present in the original program's report, until
no new findings remain.  The sampler draws that first line and never
sees a finding.  A step can therefore erase many lines at once;
cascading all the way to the empty program just means the trajectory
start was reached.  Read in reverse,
each step's lines are the insertions of one edit, growing the program
from empty to full, and every state lints clean relative to the source.

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
import os
import random
from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

from .corpus import SourceExample
from .diffkit import split_lines
from .lint import LintError, LinterSpec, LinterTimeout, SamplerError, get_linter

DEFAULT_MAX_LINES = 2048
#: retries per sample for a sequence not yet seen, with unique_sequences
MAX_UNIQUE_ATTEMPTS = 8
# A pool task samples a batch of consecutive examples, closed at this many
# examples or once it holds this many source lines: instruction-sized
# programs share one task's submission and result transfer, while a long
# program is a task of its own, so a few long ones still spread over workers.
BATCH_EXAMPLES = 8
BATCH_LINES = 256


@dataclass(frozen=True)
class StateSequence:
    """A trajectory over the source ``lines``, as its insertion edits.

    ``inserted[k]`` holds the strictly increasing source indices that edit
    ``k + 1`` inserts; the edits together insert every line exactly once,
    growing the program from empty to the full source.
    """

    lines: tuple[str, ...]
    inserted: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for step in self.inserted:
            if not step or not all(map(operator.lt, step, step[1:])):
                raise ValueError("each edit inserts a non-empty, strictly increasing index run")
        if sorted(itertools.chain.from_iterable(self.inserted)) != list(range(len(self.lines))):
            raise ValueError("the edits must insert every source line exactly once")

    @property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """Kept source indices of every state, from the empty program to the full one."""
        kept: list[int] = []
        states = [()]
        for step in self.inserted:
            for index in step:
                insort(kept, index)
            states.append(tuple(kept))
        return tuple(states)


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


def backward_sample(
    program: str,
    linter: LinterSpec | None = None,
    rng: random.Random | None = None,
) -> StateSequence:
    """Sample one linter-guided deletion trajectory, returned forward.

    Each step draws one line uniformly from the engine's own kept list, and
    the engine's ``step`` runs the cascade from it and names the source
    indices it deleted; they become one edit, last step first.  The engine
    keeps the setup of the last program it saw, so repeated samples of one
    program share its baseline findings.  The built-in engine re-walks
    only the lines whose walk state a deletion changed; a sample's first
    check resumes from the whole-program walk.
    """
    rng = rng or random.Random()
    engine = get_linter(linter or LinterSpec())
    lines, kept = engine.setup(program)
    steps = []
    while kept:
        steps.append(engine.step(kept[rng.randrange(len(kept))]))
    return StateSequence(lines, tuple(reversed(steps)))


def random_sample(program: str, rng: random.Random | None = None) -> StateSequence:
    """Ablation trajectory: delete a uniform-size uniform subset per step."""
    rng = rng or random.Random()
    lines = tuple(split_lines(program))
    kept = list(range(len(lines)))
    steps = []
    while kept:
        k = rng.randint(1, len(kept))
        doomed = sorted(rng.sample(range(len(kept)), k), reverse=True)
        steps.append(tuple(sorted([kept.pop(pos) for pos in doomed])))
    return StateSequence(lines, tuple(reversed(steps)))


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
            for attempt in range(MAX_UNIQUE_ATTEMPTS + 1):
                rng = random.Random(derive_seed(seed, example_index, sample_index, attempt))
                if mode == "lintseq":
                    seq = backward_sample(program, spec, rng)
                else:
                    seq = random_sample(program, rng)
                if not unique_sequences or seq.inserted not in seen:
                    break
            seen.add(seq.inserted)
            sequences.append(seq)
    except LinterTimeout as exc:
        return ExampleResult(example_index, example, skip_reason=f"linter timeout: {exc}")
    except SamplerError as exc:
        return ExampleResult(example_index, example, skip_reason=str(exc))
    except LintError:
        raise  # the linter cannot run at all; that fails every example alike
    except Exception as exc:
        # one bad example must not abort the run or lose the other records
        from traceback import format_exc

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
    and ``BATCH_LINES``).  The first task starts every process at once, so
    the pool has ``min(workers, os.cpu_count())`` of them, and at most twice
    that many submitted tasks are waiting to be yielded: examples are pulled
    from ``examples`` only as results are consumed.
    """
    if mode not in ("lintseq", "randseq"):
        raise ValueError(f"unknown sampling mode: {mode!r}")
    if samples_per_example < 1:
        raise ValueError("samples_per_example must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if max_lines < 1:
        raise ValueError("max_lines must be at least 1")
    task = partial(
        _sample_example,
        spec=linter or LinterSpec(),
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
    # imported here: the pool's modules cost a single-process run its start-up
    from concurrent.futures import Future, ProcessPoolExecutor

    workers = min(workers, os.cpu_count() or 1)
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
