import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import pytest

from lintseq import sampler
from lintseq.cli import main
from lintseq.corpus import SourceExample, read_records
from lintseq.diffkit import diff_states
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
    # A traced peak also counts the traced objects that freed tuples leave
    # in the interpreter's free lists (20 sizes, up to 2,000 each), and
    # earlier code leaves those lists anywhere from empty to full.  So a
    # first run, whose peak is not compared, pays the one-time costs, and
    # each run starts with the lists emptied by a full collection, then
    # filled with untraced tuples: its peak then repeats to within a few KB.
    peaks = []
    for count in (1000, 1000, 10000):
        corpus = tmp_path / f"c{count}.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.writelines(
                json.dumps({"program": f"a{i} = {i}\nb{i} = a{i} + 1\n"}) + "\n" for i in range(count)
            )
        argv = ["generate", "--input", str(corpus), "--output", str(tmp_path / "out.jsonl"),
                "--mode", "randseq", "--samples", "1"]
        gc.collect()
        filler = [tuple(range(size)) for size in range(1, 21) for _ in range(2000)]
        del filler
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert f"processed {count} examples\n" in err
        assert f"generate: {count}/{count} examples, {count} sequences" in err
    # 9,000 more examples, about the same peak: under 4 bytes held per example
    assert peaks[2] - peaks[1] < 4 * 9000, peaks


@pytest.mark.parametrize("command", ["generate", "lintcheck"])
def test_malformed_lines_memory_flat_in_corpus_size(tmp_path, monkeypatch, command):
    # each malformed line is reported and counted, not kept; stderr goes to
    # a file so that captured output does not grow the traced peak
    peaks = []
    for count in (1000, 1000, 10000):
        corpus = tmp_path / f"bad{count}.jsonl"
        # one good program, as lintcheck needs one to report a rate
        bad = "".join(f"[{i}]\n" for i in range(count))
        corpus.write_text(json.dumps({"program": "x = 1\n"}) + "\n" + bad, encoding="utf-8")
        argv = [command, "--input", str(corpus)]
        if command == "generate":
            argv += ["--output", str(tmp_path / "out.jsonl"), "--mode", "randseq"]
        log = tmp_path / f"err-{len(peaks)}.txt"
        with open(log, "w", encoding="utf-8") as err:
            monkeypatch.setattr(sys, "stderr", err)
            gc.collect()
            filler = [tuple(range(size)) for size in range(1, 21) for _ in range(2000)]
            del filler
            tracemalloc.start()
            try:
                assert main(argv) == 2
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        lines = log.read_text(encoding="utf-8").splitlines()
        assert lines[count - 1] == f"input line {count + 1} skipped: record is not a JSON object"
    # 9,000 more malformed lines, about the same peak: under 4 bytes held per line
    assert peaks[2] - peaks[1] < 4 * 9000, peaks


def test_seed_path_under_unique_sequences_replays_with_earlier_samples(tmp_path):
    # a third sample of a 2-line program can only repeat an order, so it is
    # retried to the last attempt; its seed_path still names attempt 0
    program = "a = 1\nb = 2\n"
    corpus, out = write_corpus(tmp_path, [{"program": program}]), tmp_path / "out.jsonl"
    assert main(["generate", "--input", str(corpus), "--output", str(out), "--seed", "1",
                 "--samples", "3", "--unique-sequences"]) == 0
    record = list(read_records(out))[2]
    assert record.seed_path == (1, 0, 2)
    rng = random.Random(sampler.derive_seed(*record.seed_path))
    alone = sampler.backward_sample(program, rng=rng)
    assert tuple(d.rendered for d in diff_states(alone)) != record.edits
    (again,) = sampler.sample_corpus(
        [SourceExample.build("x", "", program)], samples_per_example=3, seed=1,
        unique_sequences=True,
    )
    assert tuple(d.rendered for d in diff_states(again.sequences[2])) == record.edits


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
    # the linter's input goes to the standard temp dir; forked workers inherit it
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
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


def test_generate_skips_an_example_whose_linter_times_out(tmp_path, capsys):
    # the tool sleeps only on states holding the marker line, so only p3 times
    # out; exec makes the killed process the sleeper, whose pipes then close
    rows = CLEAN + [{"id": "p3", "instruction": "", "program": "SLOW = 1\nx = SLOW\n"}]
    tool = """sh -c 'grep -q SLOW "$1" && exec sleep 5; :' sh {path}"""
    code, out = run_generate(
        tmp_path, rows, "--samples", "2", "--linter", "external", "--linter-cmd", tool,
        "--linter-timeout", "0.2",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "skip p3: linter timeout: linter exceeded 0.2s\n" in err
    assert "generate: 3/4 examples, 6 sequences, 1 skipped" in err
    records = list(read_records(out))
    assert [(r.source_id, r.sample_index) for r in records] == [
        (p, i) for p in ("p0", "p1", "p2") for i in (0, 1)
    ]


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


@pytest.mark.parametrize("command", ["generate", "lintcheck"])
@pytest.mark.parametrize("pattern", ["(", "(?P<line>.+)"])
def test_bad_linter_pattern_exit_1(tmp_path, capsys, command, pattern):
    # echo prints the temp path, which "(?P<line>.+)" matches without a code group
    out = tmp_path / "out.jsonl"
    out.write_text("keep me\n")
    argv = [command, "--input", str(write_corpus(tmp_path, CLEAN)), "--linter", "external",
            "--linter-cmd", "echo {path}", "--linter-pattern", pattern]
    if command == "generate":
        argv += ["--output", str(out), "--samples", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["kind"] == "ValueError"
    assert "finding pattern" in err["error"]
    assert captured.out == ""
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("command", ["generate", "lintcheck"])
def test_unbalanced_linter_cmd_quote_exit_1(tmp_path, capsys, command):
    out = tmp_path / "out.jsonl"
    out.write_text("keep me\n")
    argv = [command, "--input", str(write_corpus(tmp_path, CLEAN)), "--linter", "external",
            "--linter-cmd", '"abc {path}']
    if command == "generate":
        argv += ["--output", str(out), "--samples", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {
        "error": """bad external linter command template '"abc {path}': No closing quotation""",
        "kind": "ValueError",
    }
    assert captured.out == ""
    assert out.read_text() == "keep me\n"


def _no_line_number_linter(tmp_path) -> list[str]:
    """Linter flags whose tool prints a finding without a line number for
    each program that calls ``print``, and nothing for any other."""
    script = tmp_path / "nolinelint.py"
    script.write_text(
        "import sys\n"
        "if 'print' in open(sys.argv[1]).read():\n"
        "    print('E bad')\n"
    )
    return ["--linter", "external", "--linter-cmd", f"{sys.executable} {script} {{path}}",
            "--linter-pattern", r"^(?P<code>E) (?P<line>\S+)(?P<message>)"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generate_linter_output_without_a_line_number_exit_1(tmp_path, capsys, workers):
    # fails the run once, as a linter that cannot start does, not each example
    out = tmp_path / "out.jsonl"
    out.write_text("keep me\n")
    code = main(["generate", "--input", str(write_corpus(tmp_path, CLEAN)), "--output", str(out),
                 "--samples", "1", "--workers", workers, *_no_line_number_linter(tmp_path)])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "no line number in linter output line 'E bad'", "kind": "LintError",
    }
    assert out.read_text() == "keep me\n"


def test_lintcheck_counts_linter_output_without_a_line_number_as_a_failure(tmp_path, capsys):
    argv = ["lintcheck", "--input", str(write_corpus(tmp_path, CLEAN)),
            *_no_line_number_linter(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "checked 1 programs: 0 with findings (0.0%), 2 linter failures\n"
    )
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "rate": 0.0, "checked": 1, "flagged": 0, "failures": 2, "per_code": {},
    }


@pytest.mark.parametrize(
    "linter_cmd, cause",
    [
        ("echo E {path}", "no line number in linter output line 'E <file>'"),
        ("lintseq-no-such-linter {path}", "failed to run linter: "),
    ],
)
def test_lintcheck_names_the_first_failure_when_no_program_can_be_checked(
    tmp_path, capsys, linter_cmd, cause
):
    argv = ["lintcheck", "--input", str(write_corpus(tmp_path, CLEAN)), "--linter", "external",
            "--linter-cmd", linter_cmd,
            "--linter-pattern", r"^(?P<code>E) (?P<line>\S+)(?P<message>)"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["kind"] == "ValueError"
    assert err["error"].startswith(
        "no programs could be checked; lint error rate undefined; first failure: " + cause
    ), err
    assert captured.out == ""


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


FLOPS_SHAPE = ["--n-params", "10", "--n-layers", "2", "--context", "8"]


@pytest.mark.parametrize(
    "command, config",
    [
        ("generate", {"dedup": "false"}),
        ("generate", {"samples": 2.7}),
        ("generate", {"seed": True}),
        ("generate", {"skip_dirty": 0}),
        ("generate", {"workers": None}),
        ("generate", {"linter_timeout": "5"}),
        ("generate", {"separator": 5}),
        ("stats", {"json": "true"}),
        ("flops", {"n_params": 10.0}),
        ("flops", {"tokens": False}),
        ("generate", {"sampels": 3}),
    ],
)
def test_config_value_of_wrong_type_exit_1(tmp_path, capsys, command, config):
    _, records = run_generate(tmp_path, CLEAN, "--samples", "1", name="records.jsonl")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.jsonl"
    out.write_text("keep me\n")
    inputs = {"generate": write_corpus(tmp_path, CLEAN), "stats": records, "flops": records}
    argv = [command, "--input", str(inputs[command]), "--config", str(cfg)]
    argv += {"generate": ["--output", str(out)], "flops": FLOPS_SHAPE[2:]}.get(command, [])
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["kind"] == "ValueError"
    (key,) = config
    assert f"config key {key!r}" in err["error"]
    assert captured.out == ""
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize(
    "timeout", ["NaN", "Infinity", pytest.param("1" + "0" * 400, id="401-digit")]
)
def test_generate_rejects_non_finite_linter_timeout(tmp_path, capsys, timeout):
    # Python's json reads NaN and Infinity as floats, which pass a type check,
    # and a 401-digit int, which passes it too but overflows a float
    cfg = tmp_path / "run.json"
    cfg.write_text('{"linter_timeout": %s}' % timeout)
    corpus = write_corpus(tmp_path, CLEAN)
    out = tmp_path / "out.jsonl"
    out.write_text("keep me\n")
    linter = ["--linter", "external", "--linter-cmd", f"{sys.executable} -c pass {{path}}"]
    argv = ["generate", "--input", str(corpus), "--output", str(out), "--config", str(cfg)]
    assert main(argv + linter) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["kind"] == "ValueError"
    assert "timeout must be a finite positive number" in err["error"]
    assert captured.out == ""
    assert out.read_text() == "keep me\n"


#: the config contract, apart from the parser it is read from: each key and
#: the JSON kinds its value may take, in the order the error message names them
CONFIG_KINDS = {
    **dict.fromkeys(["dedup", "skip_dirty", "unique_sequences", "json"], "bool"),
    **dict.fromkeys(["seed", "samples", "workers", "max_lines", "n_params", "n_layers", "context",
                     "samples_per_problem", "problems"], "int"),
    **dict.fromkeys(["tokens", "chars_per_token", "linter_timeout"], "int or float"),
    **dict.fromkeys(["input", "output", "separator", "mode", "linter", "linter_cmd",
                     "linter_pattern"], "str"),
}
JSON_SAMPLES = {"bool": True, "int": 3, "float": 2.5, "str": "x", "NoneType": None, "list": []}


@pytest.mark.parametrize("key", sorted(CONFIG_KINDS))
def test_config_key_takes_exactly_its_kinds(tmp_path, capsys, key):
    # any command's key is accepted by every command; stats reads no input first
    cfg = tmp_path / "run.json"
    kinds = CONFIG_KINDS[key].split(" or ")
    for kind, value in JSON_SAMPLES.items():
        cfg.write_text(json.dumps({key: value}))
        assert main(["stats", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        if kind in kinds:
            assert not err.startswith("config key"), err
        else:
            assert err == f"config key {key!r} must be {CONFIG_KINDS[key]}, not {json.dumps(value)}"


def test_config_has_no_other_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for key in ("config", "help", "command", "func", "n", "k"):
        cfg.write_text(json.dumps({key: 1}))
        assert main(["stats", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": f"unknown config key {key!r}", "kind": "ValueError"}


def test_config_file_empty_or_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    assert main(["flops", *FLOPS_SHAPE]) == 0
    plain = capsys.readouterr().out
    for text in ("", " \n\n"):  # an empty file sets no default
        cfg.write_text(text)
        assert main(["flops", *FLOPS_SHAPE, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == plain
    for text in ("[]", '"samples"', "3", "null"):
        cfg.write_text(text)
        assert main(["flops", *FLOPS_SHAPE, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err == {"error": "config file must hold a single JSON object", "kind": "ValueError"}


def test_linter_timeout_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"linter_timeout": -1}))
    corpus = write_corpus(tmp_path, CLEAN[:1])
    out = tmp_path / "out.jsonl"
    argv = ["generate", "--input", str(corpus), "--output", str(out), "--samples", "1",
            "--config", str(cfg)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "--linter-timeout must be a finite positive number, not -1.0"
    assert not out.exists()
    assert main(argv + ["--linter-timeout", "5"]) == 0
    assert len(list(read_records(out))) == 1


@pytest.mark.parametrize("command", ["generate", "lintcheck"])
def test_linter_timeout_flag_not_finite_exit_1(tmp_path, capsys, command):
    corpus = write_corpus(tmp_path, CLEAN)
    assert main([command, "--input", str(corpus), "--linter-timeout", "nan"]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err == {
        "error": "--linter-timeout must be a finite positive number, not nan", "kind": "ValueError"
    }
    assert captured.out == ""


def test_config_values_of_their_json_type_run(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dedup": False, "samples": 1, "seed": 3, "linter_timeout": 5}))
    corpus = write_corpus(tmp_path, CLEAN + CLEAN[:1])
    out = tmp_path / "out.jsonl"
    argv = ["generate", "--input", str(corpus), "--output", str(out), "--config", str(cfg)]
    assert main(argv) == 0
    assert [r.source_id for r in read_records(out)] == ["p0", "p1", "p2", "p0"]
    cfg.write_text(json.dumps(
        {"tokens": 3, "n_params": 10, "n_layers": 2, "context": 8, "json": True}
    ))
    assert main(["flops", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"flops_per_token": 84, "total_flops": 252}


@pytest.mark.parametrize("command", ["resolve", "stats", "flops"])
def test_records_non_utf8_last_line_exit_1(tmp_path, capsys, command):
    _, records = run_generate(tmp_path, CLEAN, "--samples", "1")
    with open(records, "ab") as fh:
        fh.write(b'{"program": "\xff = 1\n"}\n')
    out = tmp_path / "resolved.jsonl"
    out.write_text("keep me\n")
    argv = [command, "--input", str(records)]
    argv += {"resolve": ["--output", str(out)], "flops": FLOPS_SHAPE}.get(command, [])
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "CorpusError"
    assert err["error"].startswith(f"{records}: not valid UTF-8")
    assert out.read_text() == "keep me\n"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["corpus.jsonl", "out.jsonl", "resolved.jsonl"]


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


def test_resolve_flags_a_program_mismatch(tmp_path, capsys):
    # the edits apply cleanly but rebuild another program than the record's
    _, out = run_generate(tmp_path, CLEAN, "--samples", "1")
    lines = out.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["program"] = "a = 2\nb = 2\nc = 3\n"
    lines[0] = json.dumps(rec)
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text("".join(l + "\n" for l in lines))
    assert main(["resolve", "--input", str(damaged)]) == 2
    captured = capsys.readouterr()
    rows = [json.loads(l) for l in captured.out.splitlines()]
    assert captured.out.splitlines()[0] == (
        '{"line":1,"source_id":"p0","sample_index":0,"ok":true,'
        '"program":"a = 1\\nb = 2\\nc = 3\\n","matches_source":false}'
    )
    assert all(r["ok"] and r["matches_source"] for r in rows[1:])
    assert "resolve: 3 records, 0 malformed, 0 conflicts, 1 mismatches\n" in captured.err


@pytest.mark.parametrize("line", ["[1, 2]", '"text"', "7", "null"])
def test_record_line_that_is_not_an_object(tmp_path, capsys, line):
    _, out = run_generate(tmp_path, CLEAN, "--samples", "1")
    lines = out.read_text().splitlines()
    lines.insert(1, line)
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(l + "\n" for l in lines))
    capsys.readouterr()
    assert main(["resolve", "--input", str(mixed)]) == 2
    captured = capsys.readouterr()
    rows = [json.loads(l) for l in captured.out.splitlines()]
    assert rows[1] == {
        "line": 2,
        "ok": False,
        "error": {"kind": "MalformedRecord", "message": "record line is not a JSON object"},
    }
    assert all(r["ok"] and r["matches_source"] for r in rows[:1] + rows[2:])
    assert "resolve: 4 records, 1 malformed, 0 conflicts, 0 mismatches\n" in captured.err
    assert main(["stats", "--input", str(mixed)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "error": f"{mixed}:2: bad record: record line is not a JSON object",
        "kind": "CorpusError",
    }


@pytest.mark.parametrize("number", ["1" * 5000, "\u0661"], ids=["too-long", "non-ascii"])
def test_resolve_reports_a_bad_decorator_number(tmp_path, capsys, number):
    # too many digits for int(), or a digit that is not ASCII: a malformed
    # decorator in that record's row, not a fatal error
    _, out = run_generate(tmp_path, CLEAN, "--samples", "1")
    lines = out.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["training_text"] = rec["training_text"].replace("@@ -0,0 +1", f"@@ -0,0 +{number}", 1)
    lines[0] = json.dumps(rec)
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text("".join(l + "\n" for l in lines))
    assert main(["resolve", "--input", str(damaged)]) == 2
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(rows) == 3
    assert rows[0]["error"]["kind"] == "MalformedDecorator"
    assert rows[0]["error"]["edit_index"] == 0
    assert all(r["ok"] and r["matches_source"] for r in rows[1:])


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


@pytest.mark.parametrize("command", ["generate", "resolve"])
def test_unwritable_output_error_names_the_output(tmp_path, capsys, command):
    run_generate(tmp_path, CLEAN, "--samples", "1")  # writes corpus.jsonl and out.jsonl
    source = tmp_path / ("corpus.jsonl" if command == "generate" else "out.jsonl")
    out = tmp_path / "missing" / "x.jsonl"
    capsys.readouterr()
    assert main([command, "--input", str(source), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "error": f"[Errno 2] No such file or directory: {str(out)!r}",
        "kind": "FileNotFoundError",
    }


@pytest.mark.parametrize("command", ["generate", "resolve"])
def test_output_that_is_a_directory_exit_1_before_reading(tmp_path, capsys, command):
    _, records = run_generate(tmp_path, CLEAN, "--samples", "1", name="records.jsonl")
    # a malformed first line would be reported as soon as the input is read
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("{\n" + "".join(json.dumps(r) + "\n" for r in CLEAN), encoding="utf-8")
    adir = tmp_path / "adir"
    adir.mkdir()
    source = corpus if command == "generate" else records
    capsys.readouterr()
    assert main([command, "--input", str(source), "--output", str(adir)]) == 1
    err = capsys.readouterr().err
    assert "skipped" not in err
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"[Errno 21] Is a directory: {str(adir)!r}",
        "kind": "IsADirectoryError",
    }
    assert list(adir.iterdir()) == []
    assert not list(tmp_path.glob(".lintseq-*.tmp"))


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


# nested past any recursion limit: json.loads raises RecursionError on it
DEEP = "[" * 100_000 + "]" * 100_000
# valid JSON whose string no UTF-8 output can hold
LONE = json.dumps({"id": "b", "program": "y = \"\ud800\"\n"})

# lines json.loads accepts that are malformed all the same, with the reason given
UNDECODABLE = [(DEEP, "nesting too deep"), (LONE, "lone surrogate")]


@pytest.mark.parametrize("command", ["generate", "lintcheck"])
def test_corpus_line_nested_too_deep_is_skipped(tmp_path, capsys, command):
    for line, reason in UNDECODABLE:
        corpus = write_corpus(tmp_path, CLEAN)
        with open(corpus, "a") as fh:
            fh.write(line + "\n")
        argv = [command, "--input", str(corpus)]
        if command == "generate":
            argv += ["--samples", "1", "--output", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2
        assert f"input line 4 skipped: invalid JSON: {reason}\n" in capsys.readouterr().err
        if command == "generate":
            assert len(list(read_records(tmp_path / "out.jsonl"))) == 3


def test_lintcheck_external_skips_a_lone_surrogate(tmp_path, capsys):
    corpus = write_corpus(tmp_path, CLEAN)
    with open(corpus, "a") as fh:
        fh.write(LONE + "\n")
    argv = ["lintcheck", "--input", str(corpus), "--linter", "external",
            "--linter-cmd", f"{sys.executable} -c pass {{path}}"]
    assert main(argv) == 2
    assert "input line 4 skipped: invalid JSON: lone surrogate\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resolve", "stats", "flops"])
def test_record_nested_too_deep(tmp_path, capsys, command):
    _, records = run_generate(tmp_path, CLEAN, "--samples", "1")
    good = records.read_text().splitlines()
    lone_id = json.dumps({**json.loads(good[0]), "source_id": "\ud800"})
    for line, reason in [(DEEP, "nesting too deep"), (lone_id, "lone surrogate")]:
        records.write_text("".join(l + "\n" for l in [good[0], line, *good[1:]]))
        capsys.readouterr()
        argv = [command, "--input", str(records)]
        if command == "flops":
            argv += FLOPS_SHAPE
        if command == "resolve":
            assert main(argv) == 2
            captured = capsys.readouterr()
            rows = {r["line"]: r for r in map(json.loads, captured.out.splitlines())}
            assert rows[2]["error"]["kind"] == "MalformedRecord"
            assert reason in rows[2]["error"]["message"]
            assert all(rows[n]["ok"] and rows[n]["matches_source"] for n in (1, 3, 4))
        else:
            assert main(argv) == 1
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["kind"] == "CorpusError"
            assert f"{records}:2: bad record: {reason}" in err["error"]


def test_config_nested_too_deep_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for text, reason in [(DEEP, "nesting too deep"), ('{"linter": "\\ud800"}', "lone surrogate")]:
        cfg.write_text(text)
        assert main(["flops", *FLOPS_SHAPE, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["kind"] == "JSONDecodeError"  # a ValueError, as for any malformed config
        assert err["error"].startswith(reason)
        assert captured.out == ""


def test_separator_collision_skips_the_example(tmp_path, capsys):
    rows = [CLEAN[0], {"id": "px", "program": "x\n"}, CLEAN[2]]
    outputs = []
    for workers in ("1", "2"):
        code, out = run_generate(tmp_path, rows, "--mode", "randseq", "--samples", "1",
                                 "--separator", "+x", "--workers", workers, name=f"w{workers}.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert "skip px: separator token collides with an edit body line\n" in err
        assert [r.source_id for r in read_records(out)] == ["p0", "p2"]
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize(
    "flag, config", [("0", None), ("-2", None), ("nan", None), ("inf", None), (None, "NaN")]
)
def test_flops_rejects_chars_per_token_not_finite_positive(tmp_path, capsys, flag, config):
    _, out = run_generate(tmp_path, CLEAN, "--samples", "1")
    argv = ["flops", *FLOPS_SHAPE, "--input", str(out), "--json"]
    if flag is not None:
        argv += ["--chars-per-token", flag]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text('{"chars_per_token": %s}' % config)
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["kind"] == "ValueError"
    assert "--chars-per-token must be a finite positive number" in err["error"]
    assert captured.out == ""


BAD_COUNT = "must be a finite positive number, not"


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--n-params", "10", "--tokens", "inf"], None, f"--tokens {BAD_COUNT} inf"),
        (["--n-params", "10"], '{"tokens": Infinity}', f"--tokens {BAD_COUNT} inf"),
        (
            ["--n-params", "1" + "0" * 400, "--tokens", "1.5"], None,
            "total FLOPs do not fit in a float",
        ),
        (["--n-params", "10"], '{"tokens": %s}' % ("1" * 400), f"--tokens {BAD_COUNT} inf"),
        (["--n-params", "10", "--tokens", "0"], None, f"--tokens {BAD_COUNT} 0.0"),
        (["--n-params", "10", "--tokens", "-1"], None, f"--tokens {BAD_COUNT} -1.0"),
        (["--n-params", "10", "--tokens", "nan"], None, f"--tokens {BAD_COUNT} nan"),
        (
            ["--n-params", "10"], '{"chars_per_token": %s}' % ("1" * 400),
            f"--chars-per-token {BAD_COUNT} inf",
        ),
    ],
    ids=[
        "tokens-inf", "config-Infinity", "overflow", "config-tokens-overflow",
        "tokens-0", "tokens-negative", "tokens-nan", "config-chars-per-token-overflow",
    ],
)
def test_flops_rejects_non_finite_totals(tmp_path, capsys, argv, config, message):
    # a total that is not a finite number has no JSON form; a given count that
    # is not a finite positive number, flag or config, is rejected by its flag's
    # name, and a config int too large for a float is not finite either
    argv = ["flops", *argv, "--n-layers", "2", "--context", "8", "--json"]
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err == {"error": message, "kind": "ValueError"}
    assert captured.out == ""


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


def run_cli_process(cwd, *args, locale=()):
    """``python -m lintseq.cli`` in a fresh process, with the ``locale`` variables set.

    The child imports the package this test imported, installed or not.
    """
    src = os.path.dirname(os.path.dirname(sampler.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONIOENCODING", None)
    env.update(locale)
    return subprocess.run(
        [sys.executable, "-m", "lintseq.cli", *map(str, args)],
        capture_output=True, cwd=cwd, env=env, timeout=120,
    )


def test_console_script_smoke(tmp_path):
    proc = run_cli_process(tmp_path, "passk", "10", "3", "5")
    assert proc.returncode == 0
    assert proc.stdout == b"pass@5 = 0.9167\n"


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "command, marked",
    [("generate", "input"), ("lintcheck", "input"), ("generate", "config"),
     ("resolve", "records"), ("stats", "records")],
)
def test_a_byte_order_mark_changes_nothing(tmp_path, capsys, command, marked):
    # corpora, records files and configs saved by editors that prefix a BOM
    files = {"input": write_corpus(tmp_path, CLEAN), "config": tmp_path / "run.json"}
    files["config"].write_text('{"samples": 2, "seed": 4}', encoding="utf-8")
    if marked == "records":
        _, files["input"] = run_generate(tmp_path, CLEAN, "--samples", "2")
        marked = "input"
        capsys.readouterr()
    seen = []
    for bom in (b"", BOM):
        copy = tmp_path / f"marked-{len(bom)}-{files[marked].name}"
        copy.write_bytes(bom + files[marked].read_bytes())
        given = {**files, marked: copy}
        out = tmp_path / f"written-{len(bom)}.jsonl"
        argv = [command, "--input", str(given["input"])]
        if command == "generate":
            argv += ["--config", str(given["config"])]
        if command in ("generate", "resolve"):
            argv += ["--output", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        data = out.read_bytes() if out.exists() else captured.out
        # stderr with generate's elapsed time left out
        seen.append((code, data, re.sub(r", [0-9.]+s$", "", captured.err, flags=re.M)))
    assert seen[0][0] == 0
    assert seen[1] == seen[0]


# an ASCII locale, with neither of the interpreter's UTF-8 overrides
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
UTF8_LOCALE = {"PYTHONUTF8": "1"}
ACCENTED = CLEAN + [
    {"id": "é1", "instruction": "café", "program": 'été = "ça va"\nprint(été)\nx = 1\n'},
]


@pytest.mark.parametrize("command", ["generate", "resolve"])
def test_stdout_is_utf8_under_an_ascii_locale(tmp_path, command):
    corpus = write_corpus(tmp_path, ACCENTED)
    if command == "resolve":
        _, corpus = run_generate(tmp_path, ACCENTED, "--samples", "2")
    args = [command, "--input", corpus]
    written = run_cli_process(tmp_path, *args, "--output", "written.jsonl", locale=ASCII_LOCALE)
    printed = run_cli_process(tmp_path, *args, locale=ASCII_LOCALE)
    assert written.returncode == printed.returncode == 0, printed.stderr
    assert printed.stdout == (tmp_path / "written.jsonl").read_bytes()
    assert "été".encode("utf-8") in printed.stdout


def test_external_linter_output_is_read_as_utf8_under_any_locale(tmp_path):
    # the built-in checker run as an external tool, each message ending in
    # UTF-8 bytes whatever the tool's locale
    src = os.path.dirname(os.path.dirname(sampler.__file__))
    script = tmp_path / "accentlint.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from lintseq import pycheck\n"
        "from lintseq.diffkit import split_lines\n"
        "with open(sys.argv[1], encoding='utf-8') as fh:\n"
        "    lines = split_lines(fh.read())\n"
        "for line, code, message in pycheck.check_lines(lines):\n"
        "    out = f'{sys.argv[1]}:{line}:1: F1 {code} {message} (été)\\n'\n"
        "    sys.stdout.buffer.write(out.encode('utf-8'))\n",
        encoding="utf-8",
    )
    # each state is one run of the tool, so one program is enough
    corpus = write_corpus(tmp_path, ACCENTED[-1:])
    args = ["generate", "--input", corpus, "--samples", "2", "--seed", "3",
            "--linter", "external", "--linter-cmd", f"{sys.executable} {script} {{path}}"]
    records = []
    for name, locale in (("utf8", UTF8_LOCALE), ("ascii", ASCII_LOCALE)):
        proc = run_cli_process(tmp_path, *args, "--output", f"{name}.jsonl", locale=locale)
        assert proc.returncode == 0, proc.stderr
        records.append((tmp_path / f"{name}.jsonl").read_bytes())
    assert records[0] == records[1]
    # the tool steers the cascade as the built-in engine does
    _, builtin = run_generate(tmp_path, ACCENTED[-1:], "--samples", "2")
    assert records[0] == builtin.read_bytes()
