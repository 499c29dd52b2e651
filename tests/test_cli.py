import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import pytest

from lintseq import sampler
from lintseq.cli import main
from lintseq.corpus import read_records
from lintseq.metrics import dataset_stats
from tests.progen import write_corpus as write_progen_corpus

CLEAN = [
    {"id": "p0", "instruction": "three constants", "program": "a = 1\nb = 2\nc = 3\n"},
    {"id": "p1", "instruction": "chain", "program": "a = 1\nb = a + 1\nprint(b)\n"},
    {"id": "p2", "instruction": "loop", "program": "t = 0\nfor i in range(4):\n    t = t + i\nprint(t)\n"},
]


def write_corpus(tmp_path, rows, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def run_generate(tmp_path, rows, *extra, name="out.jsonl"):
    corpus = write_corpus(tmp_path, rows)
    out = tmp_path / name
    code = main(
        ["generate", "--input", str(corpus), "--output", str(out), "--seed", "3"]
        + list(extra)
    )
    return code, out


def test_generate_smoke(tmp_path, capsys):
    code, out = run_generate(tmp_path, CLEAN, "--samples", "2")
    assert code == 0
    records = list(read_records(out))
    assert len(records) == 6
    assert {r.source_id for r in records} == {"p0", "p1", "p2"}
    assert all(r.seed_path[0] == 3 for r in records)
    assert "generate: 3/3 examples, 6 sequences" in capsys.readouterr().err


def test_generate_rerun_is_byte_identical(tmp_path):
    _, out1 = run_generate(tmp_path, CLEAN, "--samples", "2", name="a.jsonl")
    _, out2 = run_generate(tmp_path, CLEAN, "--samples", "2", name="b.jsonl")
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_workers_do_not_change_output(tmp_path):
    _, seq = run_generate(tmp_path, CLEAN, "--samples", "3", name="w1.jsonl")
    _, par = run_generate(
        tmp_path, CLEAN, "--samples", "3", "--workers", "2", name="w2.jsonl"
    )
    assert seq.read_bytes() == par.read_bytes()


def test_generate_workers_identical_beyond_window(tmp_path):
    # 160 examples (21 batches) are more than a 2- or 8-worker pool
    # keeps in flight
    corpus = tmp_path / "progen160.jsonl"
    write_progen_corpus(str(corpus), count=160, seed=5)
    outputs = []
    for workers in ("1", "2", "8"):
        out = tmp_path / f"w{workers}.jsonl"
        argv = ["generate", "--input", str(corpus), "--output", str(out), "--seed", "4",
                "--samples", "2", "--workers", workers]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert len(list(read_records(tmp_path / "w1.jsonl"))) == 320
    assert outputs[0] == outputs[1] == outputs[2]


def test_generate_memory_flat_in_corpus_size(tmp_path, capsys):
    peaks = []
    for count in (1000, 10000):
        corpus = tmp_path / f"c{count}.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.writelines(
                json.dumps({"program": f"a{i} = {i}\nb{i} = a{i} + 1\n"}) + "\n" for i in range(count)
            )
        argv = ["generate", "--input", str(corpus), "--output", str(tmp_path / "out.jsonl"),
                "--mode", "randseq", "--samples", "1"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert f"processed {count} examples\n" in err
        assert f"generate: {count}/{count} examples, {count} sequences" in err
    # ten times the corpus, about the same peak: nothing is held per example
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generate_isolates_internal_errors(tmp_path, capsys, monkeypatch, workers):
    _, clean = run_generate(tmp_path, CLEAN, "--samples", "2", name="clean.jsonl")
    capsys.readouterr()
    real = sampler.backward_sample

    def faulty(program, linter=None, rng=None):
        if program == CLEAN[1]["program"]:
            raise ZeroDivisionError("injected fault")
        return real(program, linter, rng)

    # pool workers are forked after this, so they inherit the patch
    monkeypatch.setattr(sampler, "backward_sample", faulty)
    code, out = run_generate(tmp_path, CLEAN, "--samples", "2", "--workers", workers)
    assert code == 2
    expected = [r for r in read_records(clean) if r.source_id != "p1"]
    assert list(read_records(out)) == expected
    err = capsys.readouterr().err
    assert "skip p1: internal error: ZeroDivisionError: injected fault\n" in err
    assert "Traceback (most recent call last):" in err
    assert 'raise ZeroDivisionError("injected fault")' in err
    assert "generate: 2/3 examples, 4 sequences, 1 skipped" in err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "command, kind",
    [("lintseq-no-such-linter {path}", "LintError"), ("true", "ValueError")],
)
def test_generate_linter_that_cannot_run_exit_1(tmp_path, capsys, workers, command, kind):
    code, out = run_generate(
        tmp_path, CLEAN, "--samples", "1", "--workers", workers,
        "--linter", "external", "--linter-cmd", command,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["kind"] == kind
    assert "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generate_missing_linter_tmpdir_exit_1(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("LINTSEQ_TMPDIR", str(tmp_path / "missing"))
    out = tmp_path / "out.jsonl"
    out.write_text("keep me\n")
    code = main(["generate", "--input", str(write_corpus(tmp_path, CLEAN)), "--output", str(out),
                 "--samples", "1", "--workers", workers,
                 "--linter", "external", "--linter-cmd", f"{sys.executable} -c pass {{path}}"])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["kind"] == "LintError"
    assert "internal error" not in err
    assert out.read_text() == "keep me\n"


def test_generate_broken_pool_is_fatal(tmp_path, monkeypatch):
    def dying(program, linter=None, rng=None):
        os._exit(3)

    monkeypatch.setattr(sampler, "backward_sample", dying)
    out = tmp_path / "out.jsonl"
    out.write_text("keep me\n")
    with pytest.raises(BrokenProcessPool):
        main(["generate", "--input", str(write_corpus(tmp_path, CLEAN)), "--output", str(out),
              "--workers", "2"])
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generate_non_utf8_last_line_keeps_output(tmp_path, capsys, workers):
    rows = [dict(CLEAN[i % 3], id=f"r{i}") for i in range(300)]
    corpus = write_corpus(tmp_path, rows)
    with open(corpus, "ab") as fh:
        fh.write(b'{"program": "\xff = 1\n"}\n')
    out = tmp_path / "out.jsonl"
    out.write_text("keep me\n")
    code = main(["generate", "--input", str(corpus), "--output", str(out),
                 "--samples", "1", "--workers", workers])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "CorpusError"
    assert "not valid UTF-8" in err["error"]
    assert out.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "out.jsonl"]


def test_generate_skips_exit_2(tmp_path, capsys):
    rows = CLEAN + [{"id": "empty", "instruction": "", "program": ""}]
    code, out = run_generate(tmp_path, rows, "--samples", "1")
    assert code == 2
    assert len(list(read_records(out))) == 3
    assert "skip empty: empty program" in capsys.readouterr().err


def test_generate_bad_samples_exit_1(tmp_path, capsys):
    corpus = write_corpus(tmp_path, CLEAN)
    code = main(["generate", "--input", str(corpus), "--samples", "0"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "ValueError"
    assert "samples" in err["error"]


@pytest.mark.parametrize(
    "flags",
    [["--workers", "0"], ["--max-lines", "0"], ["--separator", ""], ["--samples", "0"]],
)
def test_generate_bad_option_on_empty_corpus_exit_1(tmp_path, capsys, flags):
    corpus = write_corpus(tmp_path, [])
    out = tmp_path / "out.jsonl"
    code = main(["generate", "--input", str(corpus), "--output", str(out)] + flags)
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "ValueError"
    assert not out.exists()


def test_generate_missing_input_exit_1(capsys):
    code = main(["generate"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "--input" in err["error"]


def test_generate_randseq_ignores_findings(tmp_path):
    rows = [{"id": "dirty", "instruction": "", "program": "print(ghost)\nx = 1\n"}]
    code, out = run_generate(tmp_path, rows, "--samples", "1", "--mode", "randseq")
    assert code == 0
    (record,) = read_records(out)
    assert record.num_edits >= 1


def test_generate_dedup(tmp_path, capsys):
    rows = [CLEAN[0], dict(CLEAN[0], id="copy"), CLEAN[1]]
    code, out = run_generate(tmp_path, rows, "--samples", "1", "--dedup")
    assert code == 0
    assert {r.source_id for r in read_records(out)} == {"p0", "p1"}
    assert "dropped 1 duplicate" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    corpus = write_corpus(tmp_path, CLEAN[:1])
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"samples": 1, "seed": 9}))
    out1 = tmp_path / "cfg.jsonl"
    assert main(
        ["generate", "--input", str(corpus), "--output", str(out1), "--config", str(config)]
    ) == 0
    assert all(r.seed_path[0] == 9 for r in read_records(out1))
    assert len(list(read_records(out1))) == 1
    # an explicit flag beats the config value
    out2 = tmp_path / "flag.jsonl"
    assert main(
        [
            "generate", "--input", str(corpus), "--output", str(out2),
            "--config", str(config), "--samples", "2",
        ]
    ) == 0
    assert len(list(read_records(out2))) == 2


def test_resolve_clean_records(tmp_path, capsys):
    _, out = run_generate(tmp_path, CLEAN, "--samples", "1")
    resolved = tmp_path / "resolved.jsonl"
    code = main(["resolve", "--input", str(out), "--output", str(resolved)])
    assert code == 0
    rows = [json.loads(l) for l in resolved.read_text().splitlines()]
    assert len(rows) == 3
    assert all(r["ok"] and r["matches_source"] for r in rows)
    assert "3 records, 0 malformed, 0 conflicts, 0 mismatches" in capsys.readouterr().err


def test_resolve_flags_damage(tmp_path, capsys):
    _, out = run_generate(tmp_path, CLEAN, "--samples", "1")
    lines = out.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["training_text"] = rec["training_text"].replace("@@ -", "@@ !", 1)
    lines[0] = json.dumps(rec)
    lines.append("{malformed")
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text("".join(l + "\n" for l in lines))
    code = main(["resolve", "--input", str(damaged)])
    assert code == 2
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    by_line = {r["line"]: r for r in rows}
    assert by_line[1]["ok"] is False
    assert by_line[1]["error"]["kind"] == "MalformedDecorator"
    assert by_line[1]["error"]["edit_index"] == 0
    assert by_line[4]["error"]["kind"] == "MalformedRecord"


@pytest.mark.parametrize(
    "records, flags", [("missing.jsonl", []), ("out.jsonl", ["--separator", ""])]
)
def test_resolve_fatal_error_keeps_existing_output(tmp_path, capsys, records, flags):
    run_generate(tmp_path, CLEAN, "--samples", "1")  # writes out.jsonl
    out = tmp_path / "resolved.jsonl"
    out.write_bytes(b"keep me\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = ["resolve", "--input", str(tmp_path / records), "--output", str(out), *flags]
    assert main(argv) == 1
    assert out.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_resolve_empty_separator_exit_1_on_empty_records(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["resolve", "--input", str(empty), "--separator", ""]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "ValueError"


# each breaks one field's type, or (num_edits) the record's own invariant
BAD_FIELDS = [
    {"program": 5},
    {"training_text": None},
    {"source_id": ["p0"]},
    {"sample_index": True},
    {"num_edits": "1"},
    {"num_edits": 99},
    {"edits": [1]},
    {"seed_path": [3, 0, "0"]},
]


def write_mixed_records(tmp_path, bad):
    """Valid records with one badly typed record after the first."""
    _, out = run_generate(tmp_path, CLEAN, "--samples", "1")
    lines = out.read_text().splitlines()
    rec = json.loads(lines[0])
    rec.update(bad)
    lines.insert(1, json.dumps(rec))
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(l + "\n" for l in lines))
    return mixed


@pytest.mark.parametrize("bad", BAD_FIELDS)
def test_resolve_counts_badly_typed_records(tmp_path, capsys, bad):
    mixed = write_mixed_records(tmp_path, bad)
    assert main(["resolve", "--input", str(mixed)]) == 2
    captured = capsys.readouterr()
    rows = {r["line"]: r for r in map(json.loads, captured.out.splitlines())}
    assert rows[2]["error"]["kind"] == "MalformedRecord"
    assert all(rows[n]["ok"] and rows[n]["matches_source"] for n in (1, 3, 4))
    assert "4 records, 1 malformed, 0 conflicts, 0 mismatches" in captured.err


@pytest.mark.parametrize("bad", BAD_FIELDS)
def test_stats_reports_badly_typed_record_position(tmp_path, capsys, bad):
    mixed = write_mixed_records(tmp_path, bad)
    assert main(["stats", "--input", str(mixed)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "CorpusError"
    assert f"{mixed}:2: bad record" in err["error"]


def test_stats_output(tmp_path, capsys):
    _, out = run_generate(tmp_path, CLEAN, "--samples", "2")
    assert main(["stats", "--input", str(out)]) == 0
    text = capsys.readouterr().out
    assert "examples                 3" in text
    assert "sequences                6" in text
    assert main(["stats", "--input", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == dataset_stats(read_records(out)).to_dict()


def test_passk_output(capsys):
    assert main(["passk", "10", "3", "5"]) == 0
    assert capsys.readouterr().out == "pass@5 = 0.9167\n"
    assert main(["passk", "10", "3", "1", "5", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pass@1 = 0.3000"
    assert lines[2] == "pass@10 = 1.0000"
    assert main(["passk", "10", "3", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["k"] == 5


def test_flops_output(capsys):
    assert main(
        ["flops", "--n-params", "1", "--n-layers", "1", "--context", "1"]
    ) == 0
    text = capsys.readouterr().out
    assert "flops per token  6" in text
    assert "total flops      6" in text
    assert main(
        [
            "flops", "--n-params", "150000000", "--n-layers", "12",
            "--context", "1024", "--tokens", "100", "--samples-per-problem", "10",
            "--problems", "2", "--json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flops_per_token"] == 300049152
    assert payload["total_flops"] == 300049152 * 10 * 2 * 100


def test_flops_tokens_from_records(tmp_path, capsys):
    _, out = run_generate(tmp_path, CLEAN, "--samples", "1")
    assert main(
        [
            "flops", "--n-params", "1", "--n-layers", "1", "--context", "1",
            "--input", str(out), "--chars-per-token", "2.0", "--json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    mean_chars = dataset_stats(read_records(out)).mean_chars_per_training_text
    assert payload["total_flops"] == pytest.approx(6 * mean_chars / 2.0)


def test_lintcheck_output(tmp_path, capsys):
    rows = CLEAN + [{"id": "bad", "instruction": "", "program": "print(ghost)\n"}]
    corpus = write_corpus(tmp_path, rows)
    assert main(["lintcheck", "--input", str(corpus)]) == 0
    text = capsys.readouterr().out
    assert "checked 4 programs: 1 with findings (25.0%)" in text
    assert "undefined-name  1" in text
    assert main(["lintcheck", "--input", str(corpus), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rate"] == 0.25


# three clean programs around one carrying two finding codes
MIXED = CLEAN[:2] + [
    {
        "id": "dirty",
        "instruction": "ghosts",
        "program": "x = 1\nprint(ghost)\n    y = x\nprint(x, ghost, other)\n",
    },
    CLEAN[2],
]
# sha256 of the records of MIXED at --seed 3 --samples 2 --skip-dirty
SKIP_DIRTY_SHA256 = "352191570a710d31f110d0a9db7770246c0071ff0cbe87b80dd6ca48fd227198"


def test_lintcheck_and_skip_dirty_bytes_pinned(tmp_path, capsys):
    corpus = write_corpus(tmp_path, MIXED)
    assert main(["lintcheck", "--input", str(corpus)]) == 0
    assert capsys.readouterr().out == (
        "checked 4 programs: 1 with findings (25.0%), 0 linter failures\n"
        "  undefined-name  3\n"
        "  unexpected-indent  1\n"
    )
    assert main(["lintcheck", "--input", str(corpus), "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"rate":0.25,"checked":4,"flagged":1,"failures":0,'
        '"per_code":{"undefined-name":3,"unexpected-indent":1}}\n'
    )
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jsonl"
        code = main(
            ["generate", "--input", str(corpus), "--output", str(out), "--seed", "3",
             "--samples", "2", "--skip-dirty", "--workers", workers]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "skip dirty: source has findings"
        summary = "generate: 3/4 examples, 6 sequences, 1 skipped, mean edits 1.83, "
        assert err[1].startswith(summary)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SKIP_DIRTY_SHA256


def test_missing_file_exit_1(capsys):
    code = main(["stats", "--input", "/nonexistent/records.jsonl"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "FileNotFoundError"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--mode", "fancy"])
    assert exc.value.code == 2


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "lintseq.cli", "passk", "10", "3", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "pass@5 = 0.9167\n"
