import os
import pickle
import random
import sys
import textwrap
from collections import Counter
from concurrent import futures
from concurrent.futures import Future

import pytest

import lintseq
from lintseq.corpus import SourceExample
from lintseq.diffkit import join_lines
from lintseq.lint import LinterSpec
from lintseq.sampler import (
    BATCH_EXAMPLES,
    BATCH_LINES,
    MAX_UNIQUE_ATTEMPTS,
    StateSequence,
    _batches,
    backward_sample,
    derive_seed,
    random_sample,
    sample_corpus,
)
from tests.oracles import findings, is_error_free_relative, state_texts

CHAIN = "a = 1\nb = a + 1\nprint(b)\n"
FLAT = "a = 1\nb = 2\nc = 3\n"


def examples(*programs):
    return [
        SourceExample.build(f"e{i}", f"write {i}", p) for i, p in enumerate(programs)
    ]


def test_state_sequence_requires_edits_covering_every_line_once():
    StateSequence(("a", "b", "c"), ((1,), (0, 2)))
    StateSequence((), ())
    for inserted in [
        ((1,), (0,)),  # a missing index
        ((1,), (0, 1, 2)),  # a repeated index
        ((1,), (), (0, 2)),  # an empty edit
        ((1,), (2, 0)),  # an unsorted edit
        ((1,), (0, 2, 2)),  # a repeated index within an edit
        ((0, 1, 2, 3),),  # an index past the last line
    ]:
        with pytest.raises(ValueError):
            StateSequence(("a", "b", "c"), inserted)


def test_sequence_counts_edits():
    seq = StateSequence(("a",), ((0,),))
    assert len(seq.states) - 1 == 1
    assert seq.states == ((), (0,))


def test_derive_seed_frozen_values():
    # recorded seed paths must replay across releases
    assert derive_seed(0, 0, 0) == int(
        "105293786497921025727199744805051318517451753066352845662761074783699516730279"
    )
    assert derive_seed(7, 3, 2) == int(
        "91026228882264163943820436722961852383359382661075665103690661813365099029442"
    )
    assert derive_seed(7, 3, 2, attempt=1) == int(
        "12619684784581657359578599747117662713537225764562227964435264096856162322025"
    )
    assert derive_seed(7, 3, 2, attempt=0) == derive_seed(7, 3, 2)


def check_shape(seq, program):
    texts = state_texts(seq)
    assert seq.states[0] == ()
    assert texts[0] == ""
    assert texts[-1] == program
    assert [join_lines(seq.lines[i] for i in kept) for kept in seq.states] == texts
    for a, b in zip(seq.states, seq.states[1:]):
        assert set(a) < set(b)


def test_backward_sample_independent_lines():
    # no line depends on another, so no cascade: always one line per step
    seq = backward_sample(FLAT, rng=random.Random(0))
    check_shape(seq, FLAT)
    assert len(seq.states) - 1 == 3
    sizes = [len(s) for s in seq.states]
    assert sizes == [0, 1, 2, 3]


def test_backward_sample_first_deletion_uniform():
    counts = Counter()
    for trial in range(600):
        seq = backward_sample(FLAT, rng=random.Random(trial))
        missing = set(range(3)) - set(seq.states[-2])
        counts[missing.pop()] += 1
    assert set(counts) == {0, 1, 2}
    for n in counts.values():
        assert 140 <= n <= 260


def test_backward_sample_cascades_on_dependencies():
    # deleting "a = 1" orphans both users, collapsing the whole chain
    edits = {len(backward_sample(CHAIN, rng=random.Random(t)).states) - 1 for t in range(40)}
    assert 1 in edits
    assert max(edits) <= 3


def test_backward_sample_states_stay_clean():
    baseline = findings(CHAIN)
    for trial in range(30):
        seq = backward_sample(CHAIN, rng=random.Random(trial))
        for text in state_texts(seq):
            assert is_error_free_relative(text, baseline)


def test_backward_sample_states_stay_clean_on_dirty_source():
    # the source's own finding may vanish on the way down to the empty
    # program, but no state may gain a finding the source lacks
    program = "a = 1\nprint(y)\nb = a + 1\nprint(b)\nprint(y)\n"
    baseline = findings(program)
    assert baseline
    for trial in range(30):
        texts = state_texts(backward_sample(program, rng=random.Random(trial)))
        assert texts[0] == ""
        for text in texts:
            assert is_error_free_relative(text, baseline)


def test_backward_sample_external_linter_matches_builtin(tmp_path):
    # an external linter that runs the built-in checker on its file must
    # steer the sampler exactly as the built-in engine does
    src = os.path.dirname(os.path.dirname(lintseq.__file__))
    script = tmp_path / "pychecklint.py"
    script.write_text(textwrap.dedent(f"""\
        import sys
        sys.path.insert(0, {src!r})
        from lintseq import pycheck
        from lintseq.diffkit import split_lines
        path = sys.argv[1]
        with open(path, encoding="utf-8") as fh:
            lines = split_lines(fh.read())
        for line, code, message in pycheck.check_lines(lines):
            print(f"{{path}}:{{line}}:1: E1 {{code}} {{message}}")
        """))
    spec = LinterSpec(kind="external", command_template=f"{sys.executable} {script} {{path}}")
    program = (
        "import os\n"
        "def f(a):\n"
        "    b = a + 1\n"
        "    return b\n"
        "x = f(2)\n"
        "if x:\n"
        "    print(os.sep, x)\n"
    )
    for seed in (0, 1):
        external = backward_sample(program, spec, random.Random(seed))
        builtin = backward_sample(program, rng=random.Random(seed))
        assert external.inserted == builtin.inserted


def test_backward_sample_external_linter_repeats_with_one_seed(tmp_path):
    # each setup hands out a subset of its own, so a second sample of the
    # program starts from every line again, as the first one did
    script = tmp_path / "uselint.py"
    script.write_text(textwrap.dedent("""\
        import sys
        path = sys.argv[1]
        defined = set()
        with open(path, encoding="utf-8") as fh:
            for n, line in enumerate(fh.read().splitlines(), 1):
                target, _, value = line.partition(" = ")
                for name in value.split(" + "):
                    if name.isidentifier() and name not in defined:
                        print(f"{path}:{n}:1: E1 undefined {name}")
                defined.add(target)
        """))
    spec = LinterSpec(kind="external", command_template=f"{sys.executable} {script} {{path}}")
    program = "a = 1\nb = a + 1\nc = b + a\nd = c + 1\ne = 2\n"
    first, second = (backward_sample(program, spec, random.Random(3)) for _ in range(2))
    assert first.inserted == second.inserted
    # the linter steered it: some step deleted more than the one random line
    assert any(len(step) > 1 for step in first.inserted)


def test_backward_sample_skips_findings_outside_candidate(tmp_path):
    # a finding on a line the candidate lacks deletes nothing, so the
    # cascade stops with a skip instead of looping
    script = tmp_path / "farlint.py"
    script.write_text(textwrap.dedent("""\
        import sys
        path = sys.argv[1]
        with open(path, encoding="utf-8") as fh:
            print(f"{path}:99:1: E1 {len(fh.readlines())} lines")
        """))
    spec = LinterSpec(kind="external", command_template=f"{sys.executable} {script} {{path}}")
    (r,) = sample_corpus(examples(FLAT), spec, samples_per_example=1)
    assert r.skip_reason == "finding lines fall outside the candidate; cannot stabilize"


def test_backward_sample_excuses_the_earlier_copy_of_a_baseline_finding(tmp_path):
    # the baseline has one "E1 m"; a candidate draws it at line 1 and again
    # past its last line, and the later copy is the new one, which deletes
    # nothing, so the cascade still stops with the skip
    script = tmp_path / "twicelint.py"
    script.write_text(textwrap.dedent("""\
        import sys
        path = sys.argv[1]
        with open(path, encoding="utf-8") as fh:
            n = len(fh.readlines())
        print(f"{path}:1:1: E1 m")
        if n < 3:
            print(f"{path}:{n + 1}:1: E1 m")
        """))
    spec = LinterSpec(kind="external", command_template=f"{sys.executable} {script} {{path}}")
    (r,) = sample_corpus(examples(FLAT), spec, samples_per_example=1)
    assert r.skip_reason == "finding lines fall outside the candidate; cannot stabilize"


def test_backward_sample_never_runs_the_external_linter_on_the_empty_program(tmp_path):
    runs = tmp_path / "runs.log"
    script = tmp_path / "sizelint.py"
    script.write_text(textwrap.dedent(f"""\
        import sys
        with open(sys.argv[1], encoding="utf-8") as fh:
            size = len(fh.read())
        with open({str(runs)!r}, "a") as log:
            log.write(f"{{size}}\\n")
        """))
    spec = LinterSpec(kind="external", command_template=f"{sys.executable} {script} {{path}}")
    for seed in range(3):
        seq = backward_sample(CHAIN, spec, random.Random(seed))
        assert state_texts(seq)[-1] == CHAIN
    sizes = [int(size) for size in runs.read_text().split()]
    assert sizes and 0 not in sizes


def test_sampled_sequence_pickle_grows_with_lines_not_edits():
    # 400 independent lines take 400 one-line edits; a sequence holds each
    # source index once, not a kept-index snapshot per state
    program = "".join(f"v{i} = {i}\n" for i in range(400))
    seq = backward_sample(program, rng=random.Random(0))
    assert len(seq.states) - 1 == 400
    assert len(pickle.dumps(seq)) - len(pickle.dumps(seq.lines)) < 8 * 400


def test_random_sample_shape():
    program = "\n".join(f"v{i} = {i}" for i in range(8)) + "\n"
    seq = random_sample(program, rng=random.Random(1))
    check_shape(seq, program)
    assert 1 <= len(seq.states) - 1 <= 8


def test_random_sample_mean_steps_is_harmonic():
    # E[steps] for n lines is 1 + 1/2 + ... + 1/n
    total = 0
    for trial in range(4000):
        total += len(random_sample(FLAT, rng=random.Random(trial)).states) - 1
    assert abs(total / 4000 - (1 + 1 / 2 + 1 / 3)) < 0.05


def test_sample_corpus_orders_and_counts():
    results = list(sample_corpus(examples(FLAT, CHAIN), samples_per_example=3, seed=5))
    assert [r.example_index for r in results] == [0, 1]
    for r in results:
        assert r.skip_reason is None
        assert len(r.sequences) == 3


def test_sample_corpus_skip_reasons():
    exs = examples("", FLAT, "print(ghost)\n")
    results = list(
        sample_corpus(exs, samples_per_example=1, seed=0, skip_dirty=True, max_lines=2)
    )
    assert results[0].skip_reason == "empty program"
    assert "3 lines exceeds the 2-line guard" in results[1].skip_reason
    assert results[2].skip_reason == "source has findings"
    assert all(not r.sequences for r in results)


def test_sample_corpus_dirty_sources_allowed_by_default():
    (r,) = sample_corpus(
        examples("print(ghost)\nprint(1)\n"), samples_per_example=1, seed=0
    )
    assert r.skip_reason is None
    assert state_texts(r.sequences[0])[-1] == "print(ghost)\nprint(1)\n"


def test_sample_corpus_deterministic_across_workers():
    exs = examples(FLAT, CHAIN, FLAT + "d = c + 1\n")
    runs = []
    for workers in (1, 2):
        results = list(
            sample_corpus(exs, samples_per_example=4, seed=9, workers=workers)
        )
        runs.append([[s.inserted for s in r.sequences] for r in results])
    assert runs[0] == runs[1]


def most_pulled_ahead(exs, workers):
    """Run sample_corpus; the most examples pulled but not yet yielded."""
    pulled = received = most_ahead = 0

    def source():
        nonlocal pulled, most_ahead
        for ex in exs:
            pulled += 1
            most_ahead = max(most_ahead, pulled - received)
            yield ex

    for result in sample_corpus(source(), samples_per_example=1, workers=workers):
        assert result.example_index == received
        received += 1
    assert received == len(exs)
    return most_ahead


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_corpus_pulls_a_bounded_window(workers):
    most_ahead = most_pulled_ahead(examples(*[FLAT, CHAIN] * 32), workers)
    # a pool keeps 2 * workers batches queued, plus the one being filled
    assert most_ahead == (1 if workers == 1 else (2 * workers + 1) * BATCH_EXAMPLES)


@pytest.mark.parametrize("cores, size", [(3, 3), (None, 1)])
def test_sample_corpus_caps_the_pool_at_the_cores(monkeypatch, cores, size):
    # the first submit starts every worker, so a huge count must never
    # reach the executor; a fake one records its size and runs tasks inline
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    # sample_corpus looks the executor up in its module as a pool starts
    monkeypatch.setattr(futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    most_ahead = most_pulled_ahead(examples(*[FLAT] * 10 * BATCH_EXAMPLES), 100_000)
    assert sizes == [size]
    assert most_ahead == (2 * size + 1) * BATCH_EXAMPLES


def test_batches_close_at_examples_or_lines():
    long = "x = 1\n" * BATCH_LINES
    exs = examples(FLAT, long, *[FLAT] * (BATCH_EXAMPLES + 1), long)
    sizes = [len(batch) for batch in _batches(exs)]
    # a long program closes its batch; short ones fill a batch to BATCH_EXAMPLES
    assert sizes == [2, BATCH_EXAMPLES, 2]
    flat = [index for batch in _batches(iter(exs)) for index, _ in batch]
    assert flat == list(range(len(exs)))


def test_sample_corpus_unique_sequences_retries():
    # 2-line flat program has only two possible orders; ask for both
    exs = examples("a = 1\nb = 2\n")
    for seed in range(6):
        (r,) = sample_corpus(
            exs, samples_per_example=2, seed=seed, unique_sequences=True
        )
        sigs = [s.inserted for s in r.sequences]
        assert sigs[0] != sigs[1]


def test_sample_corpus_unique_sequences_keeps_the_last_attempt():
    # a third sample of a 2-line program can only repeat an order; after
    # the last retry its draw is kept
    program = "a = 1\nb = 2\n"
    (r,) = sample_corpus(examples(program), samples_per_example=3, seed=1, unique_sequences=True)
    last = backward_sample(program, rng=random.Random(derive_seed(1, 0, 2, MAX_UNIQUE_ATTEMPTS)))
    assert r.sequences[2].inserted == last.inserted
    assert len({s.inserted for s in r.sequences}) == 2


def test_sample_corpus_randseq_mode_skips_linting():
    (r,) = sample_corpus(
        examples("print(ghost)\nprint(1)\n"),
        mode="randseq",
        samples_per_example=2,
        seed=3,
        skip_dirty=True,
    )
    # randseq never consults the linter, even for the dirty-source guard
    assert r.skip_reason is None


def test_sample_corpus_validation():
    with pytest.raises(ValueError):
        list(sample_corpus(examples(FLAT), mode="fancy"))
    with pytest.raises(ValueError):
        list(sample_corpus(examples(FLAT), samples_per_example=0))
