import random
from collections import Counter

import pytest

from lintseq.corpus import SourceExample
from lintseq.lint import check, is_error_free_relative
from lintseq.sampler import (
    ProgramState,
    StateSequence,
    backward_sample,
    derive_seed,
    random_sample,
    sample_corpus,
)
from tests.oracles import state_texts

CHAIN = "a = 1\nb = a + 1\nprint(b)\n"
FLAT = "a = 1\nb = 2\nc = 3\n"


def examples(*programs):
    return [
        SourceExample.build(f"e{i}", f"write {i}", p) for i, p in enumerate(programs)
    ]


def test_program_state_requires_increasing_indices():
    ProgramState((0, 2, 5))
    with pytest.raises(ValueError):
        ProgramState((0, 2, 2))
    with pytest.raises(ValueError):
        ProgramState((3, 1))


def test_sequence_counts_edits():
    seq = StateSequence(("a",), (ProgramState(()), ProgramState((0,))))
    assert seq.num_edits == 1
    assert seq.signature() == ((), (0,))


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
    assert seq.states[0].kept_indices == ()
    assert texts[0] == ""
    assert texts[-1] == program
    for a, b in zip(seq.states, seq.states[1:]):
        assert set(a.kept_indices) < set(b.kept_indices)


def test_backward_sample_independent_lines():
    # no line depends on another, so no cascade: always one line per step
    seq = backward_sample(FLAT, rng=random.Random(0))
    check_shape(seq, FLAT)
    assert seq.num_edits == 3
    sizes = [len(s.kept_indices) for s in seq.states]
    assert sizes == [0, 1, 2, 3]


def test_backward_sample_first_deletion_uniform():
    counts = Counter()
    for trial in range(600):
        seq = backward_sample(FLAT, rng=random.Random(trial))
        missing = set(range(3)) - set(seq.states[-2].kept_indices)
        counts[missing.pop()] += 1
    assert set(counts) == {0, 1, 2}
    for n in counts.values():
        assert 140 <= n <= 260


def test_backward_sample_cascades_on_dependencies():
    # deleting "a = 1" orphans both users, collapsing the whole chain
    edits = {backward_sample(CHAIN, rng=random.Random(t)).num_edits for t in range(40)}
    assert 1 in edits
    assert max(edits) <= 3


def test_backward_sample_states_stay_clean():
    baseline = check(CHAIN)
    for trial in range(30):
        seq = backward_sample(CHAIN, rng=random.Random(trial))
        for text in state_texts(seq):
            assert is_error_free_relative(text, baseline)


def test_backward_sample_states_stay_clean_on_dirty_source():
    # the source's own finding may vanish on the way down to the empty
    # program, but no state may gain a finding the source lacks
    program = "a = 1\nprint(y)\nb = a + 1\nprint(b)\nprint(y)\n"
    baseline = check(program)
    assert not baseline.is_clean
    for trial in range(30):
        texts = state_texts(backward_sample(program, rng=random.Random(trial)))
        assert texts[0] == ""
        for text in texts:
            assert is_error_free_relative(text, baseline)


def test_random_sample_shape():
    program = "\n".join(f"v{i} = {i}" for i in range(8)) + "\n"
    seq = random_sample(program, rng=random.Random(1))
    check_shape(seq, program)
    assert 1 <= seq.num_edits <= 8


def test_random_sample_mean_steps_is_harmonic():
    # E[steps] for n lines is 1 + 1/2 + ... + 1/n
    total = 0
    for trial in range(4000):
        total += random_sample(FLAT, rng=random.Random(trial)).num_edits
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
        runs.append([[s.signature() for s in r.sequences] for r in results])
    assert runs[0] == runs[1]


def test_sample_corpus_unique_sequences_retries():
    # 2-line flat program has only two possible orders; ask for both
    exs = examples("a = 1\nb = 2\n")
    for seed in range(6):
        (r,) = sample_corpus(
            exs, samples_per_example=2, seed=seed, unique_sequences=True
        )
        sigs = [s.signature() for s in r.sequences]
        assert sigs[0] != sigs[1]


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
