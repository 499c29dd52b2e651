import itertools
import math
import random
import tracemalloc

import pytest

from lintseq.lint import LinterSpec
from lintseq.metrics import (
    FlopsModel,
    dataset_stats,
    flops_per_token,
    lint_error_rate,
    pass_at_k,
    total_flops,
)
from tests.test_corpus import sample_record


def test_dataset_stats_empty_is_zeroed():
    stats = dataset_stats([])
    assert stats.example_count == 0
    assert stats.sequence_count == 0
    assert stats.lines_per_example == {}
    assert stats.mean_edits_per_sequence == 0.0
    assert stats.to_dict()["sequence_count"] == 0


def test_dataset_stats_counts_sources_once():
    records = [
        sample_record(source_id="a", sample_index=0),
        sample_record(source_id="a", sample_index=1),
        sample_record(
            source_id="b",
            sample_index=0,
            program="x = 1\ny = 2\n",
            edits=("@@ -0,0 +1 @@\n+x = 1", "@@ -1,0 +2 @@\n+y = 2"),
            training_text="<|diff|>\n@@ -0,0 +1 @@\n+x = 1\n<|diff|>\n@@ -1,0 +2 @@\n+y = 2",
        ),
    ]
    stats = dataset_stats(records)
    assert stats.example_count == 2
    assert stats.sequence_count == 3
    assert stats.lines_per_example == {1: 1, 2: 1}
    assert stats.edits_per_sequence == {1: 2, 2: 1}
    assert stats.mean_lines_per_example == 1.5
    assert stats.mean_edits_per_sequence == pytest.approx(4 / 3)
    # histogram keys are strings after serialization
    assert set(stats.to_dict()["edits_per_sequence"]["histogram"]) == {"1", "2"}


def test_dataset_stats_single_line_corpus_mean_edits():
    records = [
        sample_record(source_id=str(i), program="x = 1\n") for i in range(5)
    ]
    assert dataset_stats(records).mean_edits_per_sequence == 1.0


def test_dataset_stats_memory_flat_in_record_count():
    # many sequences of one source fill a few histogram buckets and hold
    # nothing per record
    records = [sample_record(sample_index=i,
                             edits=("@@ -0,0 +1 @@\n+x = 1",) * (1 + i % 2)) for i in range(4)]
    peaks = []
    for count in (1000, 100_000):
        tracemalloc.start()
        try:
            stats = dataset_stats(itertools.islice(itertools.cycle(records), count))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (stats.example_count, stats.sequence_count) == (1, count)
        assert stats.edits_per_sequence == {1: count // 2, 2: count // 2}
    # 99,000 more records, about the same peak: under a byte held per record
    assert peaks[1] - peaks[0] < 99_000, peaks


def test_pass_at_k_boundaries():
    assert pass_at_k(10, 0, 5) == 0.0
    assert pass_at_k(10, 10, 1) == 1.0
    assert pass_at_k(10, 6, 5) == 1.0  # n - c < k
    assert pass_at_k(1, 1, 1) == 1.0


def test_pass_at_k_known_value():
    # 1 - C(7,5)/C(10,5) = 1 - 21/252
    assert pass_at_k(10, 3, 5) == pytest.approx(11 / 12, abs=1e-12)
    assert pass_at_k(4, 1, 2) == pytest.approx(1 / 2, abs=1e-12)


def test_pass_at_k_matches_binomial_form():
    for n in range(1, 13):
        for c in range(n + 1):
            for k in range(1, n + 1):
                expect = 1.0 - math.comb(n - c, k) / math.comb(n, k)
                assert pass_at_k(n, c, k) == pytest.approx(expect, abs=1e-12)


def test_pass_at_k_matches_sampling():
    rng = random.Random(0)
    n, c, k = 20, 6, 4
    hits = 0
    trials = 20000
    for _ in range(trials):
        drawn = rng.sample(range(n), k)
        hits += any(i < c for i in drawn)
    assert pass_at_k(n, c, k) == pytest.approx(hits / trials, abs=0.01)


def test_pass_at_k_monotonic():
    for k in range(1, 11):
        values = [pass_at_k(10, c, k) for c in range(11)]
        assert values == sorted(values)
    for c in range(11):
        values = [pass_at_k(10, c, k) for k in range(1, 11)]
        assert values == sorted(values)


def test_pass_at_k_large_n_finite():
    v = pass_at_k(10**6, 3, 100)
    assert 0.0 < v < 1.0


def test_pass_at_k_validation():
    for n, c, k in ((0, 0, 1), (5, -1, 1), (5, 6, 1), (5, 2, 0), (5, 2, 6)):
        with pytest.raises(ValueError):
            pass_at_k(n, c, k)


def test_flops_per_token_unit_model():
    assert flops_per_token(FlopsModel(n_params=1, n_layers=1, context=1)) == 6


def test_flops_per_token_reference_model():
    model = FlopsModel(n_params=150_000_000, n_layers=12, context=1024)
    assert flops_per_token(model) == 300_049_152


def test_total_flops_scales_linearly():
    base = FlopsModel(n_params=1, n_layers=1, context=1)
    assert total_flops(base) == 6
    scaled = FlopsModel(
        n_params=1,
        n_layers=1,
        context=1,
        avg_tokens_per_sample=10.0,
        samples_per_problem=3,
        problems=7,
    )
    assert total_flops(scaled) == 6 * 3 * 7 * 10.0


def test_total_flops_int_exact_for_int_tokens():
    model = FlopsModel(
        n_params=150_000_000,
        n_layers=12,
        context=1024,
        avg_tokens_per_sample=1.0,
        samples_per_problem=50,
        problems=164,
    )
    # integer factors multiply before the float token count
    assert total_flops(model) == 300_049_152 * 50 * 164


def test_flops_model_validation():
    with pytest.raises(ValueError):
        FlopsModel(n_params=0, n_layers=1, context=1)
    with pytest.raises(ValueError):
        FlopsModel(n_params=1, n_layers=True, context=1)
    with pytest.raises(ValueError):
        FlopsModel(n_params=1, n_layers=1, context=1, avg_tokens_per_sample=0.0)
    with pytest.raises(ValueError):
        FlopsModel(n_params=1, n_layers=1, context=1, samples_per_problem=0)


def test_flops_reject_non_finite_tokens_and_totals():
    for tokens in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError):
            FlopsModel(n_params=1, n_layers=1, context=1, avg_tokens_per_sample=tokens)
    huge = FlopsModel(n_params=10**400, n_layers=1, context=1, avg_tokens_per_sample=1.5)
    with pytest.raises(ValueError):
        total_flops(huge)
    big = FlopsModel(n_params=10**300, n_layers=1, context=1, avg_tokens_per_sample=1e10)
    with pytest.raises(ValueError):
        total_flops(big)
    # an int token count keeps the total an exact int however large
    exact = FlopsModel(n_params=10**400, n_layers=1, context=1, avg_tokens_per_sample=2)
    assert total_flops(exact) == 2 * (10**400 + 2) * 2


def test_lint_error_rate_counts_flagged():
    programs = ["x = 1\n", "print(ghost)\n", "y = 2\nprint(y)\n", "z = 3\n"]
    out = lint_error_rate(programs)
    assert out.rate == 0.25
    assert out.checked == 4
    assert out.flagged == 1
    assert out.failures == 0
    assert out.per_code == {"undefined-name": 1}
    assert out.to_dict()["rate"] == 0.25


def test_lint_error_rate_excludes_failures(tmp_path):
    script = tmp_path / "flaky.py"
    script.write_text(
        "#!/usr/bin/env python3\n"
        "import sys, time\n"
        "if 'sleep_marker' in open(sys.argv[1]).read():\n"
        "    time.sleep(5)\n"
    )
    spec = LinterSpec(
        kind="external",
        command_template=f"python3 {script} {{path}}",
        timeout=0.5,
    )
    out = lint_error_rate(["x = 1\n", "sleep_marker = 1\n"], spec)
    assert out.checked == 1
    assert out.failures == 1
    assert out.rate == 0.0


def test_lint_error_rate_empty_raises():
    with pytest.raises(ValueError):
        lint_error_rate([])
