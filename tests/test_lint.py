import os
import random
import stat
import tempfile
import textwrap
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import lintseq
from lintseq import pycheck
from lintseq.diffkit import split_lines
from lintseq.lint import (
    DEFAULT_FINDING_PATTERN,
    BuiltinLinter,
    LintError,
    LinterSpec,
    LinterTimeout,
    SamplerError,
    check,
    extra_findings,
    get_linter,
)
from lintseq.pycheck import check_lines, scan_line
from lintseq.sampler import backward_sample
from tests.oracles import cold_step, findings, is_error_free_relative, recording_scan
from tests.progen import make_program


def test_check_builtin():
    # a clean program has an empty result
    assert check("x = 1\nprint(x)\n") == ()
    r = check("print(y)\n")
    assert [code for _, code, _ in r] == ["undefined-name"]


def test_extra_findings_consumes_baseline_allowance():
    baseline = [(1, "undefined-name", "undefined name 'y'")]
    # same finding, new line: covered by the allowance
    cand = [(3, "undefined-name", "undefined name 'y'")]
    assert extra_findings(cand, baseline) == []
    # a second copy is new; the later occurrence is reported
    cand2 = [(2, "undefined-name", "undefined name 'y'"),
             (6, "undefined-name", "undefined name 'y'")]
    extras = extra_findings(cand2, baseline)
    assert [line for line, _, _ in extras] == [6]


def _counter_rule(candidate, baseline):
    # the multiset rule written out, with no shortcut for an empty side
    allowance = Counter((code, message) for _, code, message in baseline)
    out = []
    for line, code, message in candidate:
        if allowance[code, message] > 0:
            allowance[code, message] -= 1
        else:
            out.append((line, code, message))
    return out


def test_extra_findings_matches_counter_rule_on_random_multisets():
    rng = random.Random(17)
    # few distinct (code, message) pairs, so pairs repeat on both sides
    pairs = [("E1", "a"), ("E1", "b"), ("F2", "a"), ("undefined-name", "x")]
    empty_sides = 0
    for _ in range(2000):
        sides = []
        for _ in range(2):
            size = rng.choice([0, 0, 1, 2, rng.randint(3, 12)])
            sides.append(sorted((rng.randint(1, 9), *rng.choice(pairs)) for _ in range(size)))
        candidate, baseline = sides
        empty_sides += not candidate or not baseline
        got = extra_findings(candidate, baseline)
        assert got == _counter_rule(candidate, baseline), (candidate, baseline)
        assert type(got) is list
        # a tuple, as setup returns the baseline, judges alike
        assert extra_findings(tuple(candidate), tuple(baseline)) == got
    assert 500 < empty_sides < 1500


def test_fingerprint_ignores_line_positions():
    # the baseline allowance erases line numbers: the same (code, message)
    # multiset at any lines is covered
    a = [(1, "x", "m"), (9, "y", "n")]
    b = [(2, "x", "m"), (7, "y", "n")]
    assert extra_findings(a, b) == []
    assert extra_findings(b, a) == []
    assert extra_findings(b + [(8, "x", "m")], a) == [(8, "x", "m")]


def test_report_built_directly_derives_order_and_fingerprint():
    # check() returns the same sorted triples the cascade judges, so its
    # findings come in line order
    src = "print(b)\nprint(a)\n"
    direct = check(src)
    assert [(line, message) for line, _, message in direct] == [
        (1, "undefined name 'b'"),
        (2, "undefined name 'a'"),
    ]
    baseline = findings(src)
    assert list(direct) == list(baseline)
    # a baseline's own findings are never new against it
    assert extra_findings(baseline, baseline) == []
    both = [(1, "a", "first"), (5, "b", "later")]
    assert extra_findings(both, both) == []


def test_check_is_the_baseline_and_leaves_sampling_unchanged(monkeypatch):
    src = "x = 1\nprint(ghost)\n    y = x\nprint(x, ghost, other)\nprint(y)\n"
    found = check(src)
    assert type(found) is tuple
    assert found == findings(src)

    def signatures():
        return [backward_sample(src, rng=random.Random(i)).inserted for i in range(6)]

    # the engine now holds src's setup from check(); a fresh one builds it anew
    after_check = signatures()
    monkeypatch.setattr("lintseq.lint._ENGINES", {})
    assert signatures() == after_check


def _step_programs() -> list[str]:
    """The package's own sources, seeded programs of every style, one dirty program."""
    root = Path(lintseq.__file__).parent
    programs = [path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))]
    gen = random.Random(27)
    for style in ("coupled", "mixed", "rich"):
        programs += [make_program(gen, 5, 60, style)[1] for _ in range(4)]
    # the same undefined name used three times: the baseline allows it thrice
    dirty = split_lines(make_program(gen, 20, 40, "mixed")[1])
    for at in sorted(gen.sample(range(len(dirty)), 3), reverse=True):
        dirty.insert(at, "print(ghost)")
    return programs + ["".join(line + "\n" for line in dirty)]


def test_step_matches_a_cold_cascade():
    # every step the engine answers equals one judged by cold checks of its
    # candidates under the same relative law, down to the empty program
    dirty = 0
    for seed, program in enumerate(_step_programs()):
        engine = BuiltinLinter(LinterSpec())
        baseline = check_lines(split_lines(program))
        assert engine.check_text(program) == tuple(baseline)
        lines, kept = engine.setup(program)
        dirty += bool(baseline)
        mirror, rng = list(kept), random.Random(seed)
        while kept:
            first = kept[rng.randrange(len(kept))]
            assert engine.step(first) == cold_step(lines, mirror, baseline, first)
            assert kept == mirror
    assert dirty


def test_sampler_error_is_one_class():
    assert lintseq.SamplerError is lintseq.sampler.SamplerError is SamplerError


def test_relative_cleanliness_with_dirty_source():
    # the source itself has a finding; subsets keeping it are still "clean"
    src = "print(ghost)\nx = 1\nprint(x)\n"
    baseline = findings(src)
    assert baseline
    assert is_error_free_relative("print(ghost)\nx = 1\n", baseline)
    assert is_error_free_relative("print(ghost)\n", baseline)
    # losing the source's own finding is allowed, down to the empty program
    assert is_error_free_relative("x = 1\n", baseline)
    assert is_error_free_relative("", baseline)
    # dropping x's definition but keeping its use adds a finding
    assert not is_error_free_relative("print(ghost)\nprint(x)\n", baseline)


def affected_lines(candidate, baseline):
    return sorted({line for line, _, _ in extra_findings(findings(candidate), baseline)})


def test_affected_lines_orphan_body():
    src = "def f():\n    return 1\nprint(f())\n"
    baseline = findings(src)
    # drop the def header: keep lines 2..3
    assert affected_lines("    return 1\nprint(f())\n", baseline) == [1, 2]


def test_affected_lines_empty_when_equal():
    src = "a = 1\nb = a + 1\nprint(b)\n"
    baseline = findings(src)
    assert affected_lines(src, baseline) == []
    assert affected_lines("a = 1\nb = a + 1\n", baseline) == []


def test_linter_spec_validation():
    with pytest.raises(ValueError):
        LinterSpec(kind="nope")
    with pytest.raises(ValueError):
        LinterSpec(kind="external", command_template="")
    # a template shlex cannot split is named, not just shlex's complaint
    for template in ('"abc {path}', "lint {path} 'x"):
        with pytest.raises(ValueError) as info:
            LinterSpec(kind="external", command_template=template)
        assert str(info.value) == (
            f"bad external linter command template {template!r}: No closing quotation"
        )
    for timeout in (0, float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(ValueError, match="finite positive"):
            LinterSpec(timeout=timeout)


@pytest.mark.parametrize("pattern", ["(", "(?P<line>.+)", r"(?P<line>\d+) (?P<code>\w+)"])
def test_linter_spec_rejects_bad_finding_pattern(pattern):
    with pytest.raises(ValueError, match="finding pattern"):
        LinterSpec(kind="external", command_template="lint {path}", finding_pattern=pattern)
    # the built-in checker never reads the pattern
    assert LinterSpec(finding_pattern=pattern).kind == "builtin"


def _write_script(path, body):
    with open(path, "w") as fh:
        fh.write("#!/usr/bin/env python3\n" + textwrap.dedent(body))
    os.chmod(path, os.stat(path).st_mode | stat.S_IEXEC)


def test_external_linter_parses_findings(tmp_path):
    script = tmp_path / "fakelint.py"
    _write_script(
        script,
        """
        import sys
        path = sys.argv[1]
        print("************* Module x")
        print(f"{path}:3:1: E101 bad thing in {path} on line 3")
        print(f"{path}:1:5: W201 just a warning")
        sys.exit(1)
        """,
    )
    spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    r = check("a = 1\nb = 2\nc = 3\n", spec)
    # a line the pattern does not match is skipped and warnings are dropped
    # by default; messages hide the temp path and line
    assert [(code, line) for line, code, _ in r] == [("E101", 3)]
    assert r[0][2] == "bad thing in <file> on line ?"


@pytest.mark.parametrize("kind", ["builtin", "external"])
def test_check_subset_rejects_a_bad_deletion_and_keeps_its_lines(tmp_path, kind):
    spec = LinterSpec()
    if kind == "external":
        script = tmp_path / "quietlint.py"
        _write_script(script, "")
        spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    engine = get_linter(spec)
    _, kept = engine.setup("a = 1\nb = 2\nc = 3\n")
    # a duplicate index, and an index never kept, in either order
    for deleted, bad in (([0, 0], 0), ([5, 1], 5), ([2, 1, 2], 2)):
        with pytest.raises(ValueError, match=f"^source line {bad} is not kept$"):
            engine.check_subset(deleted)
        assert kept == [0, 1, 2]
    assert not engine.check_subset([1])
    # an index deleted before is no longer kept
    with pytest.raises(ValueError, match="^source line 1 is not kept$"):
        engine.check_subset([1])
    assert kept == [0, 2]


def test_external_linter_sorts_findings(tmp_path):
    script = tmp_path / "shufflelint.py"
    _write_script(
        script,
        """
        import sys
        path = sys.argv[1]
        print(f"{path}:5:1: Eb later")
        print(f"{path}:5:1: E1 same")
        print(f"{path}:1:1: Ea first")
        print(f"{path}:2:1: E1 same")
        """,
    )
    spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    # reports list findings by line, then code, then message
    r = check("a = 1\n", spec)
    assert [(line, code) for line, code, _ in r] == [(1, "Ea"), (2, "E1"), (5, "E1"), (5, "Eb")]
    # the cascade gets the same order, so the later copy of a
    # message the baseline allows once is the one reported as new; the
    # candidate's line 1 is source line 2, and lines past the candidate's
    # end stay as far past the source's end
    engine = get_linter(spec)
    _, kept = engine.setup("a = 1\nb = 2\n")
    found = engine.check_subset([0])
    assert kept == [1]
    assert [line for line, _, _ in found] == [2, 3, 6, 6]
    allowed_once = [(9, "E1", "same"), (9, "Ea", "first"), (9, "Eb", "later")]
    assert extra_findings(found, allowed_once) == [(6, "E1", "same")]


def test_external_linter_cache_keeps_last_program_only(tmp_path):
    runs = tmp_path / "runs.log"
    script = tmp_path / "firstlinelint.py"
    _write_script(
        script,
        f"""
        import sys
        path = sys.argv[1]
        with open({str(runs)!r}, "a") as log:
            log.write("run\\n")
        with open(path) as fh:
            print(f"{{path}}:1:1: E1 {{fh.readline().strip()}}")
        """,
    )
    spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    engine = get_linter(spec)
    first, second = "a = 1\nb = 2\n", "c = 3\n"
    engine.setup(first)
    engine.check_subset([0])
    engine.setup(first)
    assert runs.read_text().count("run") == 2  # the second setup hit the cache
    engine.setup(second)
    assert list(engine._cache.values()) == [((1, "E1", "c = 3"),)]
    # check_text goes through setup too
    assert [message for _, _, message in check(first, spec)] == ["a = 1"]
    assert list(engine._cache.values()) == [((1, "E1", "a = 1"),)]
    assert runs.read_text().count("run") == 4


def test_external_linter_maps_cached_findings_through_kept_lines(tmp_path):
    # two candidates with the same text can keep different source lines:
    # the cache holds the tool's candidate numbering, and each check maps
    # it through its own kept list
    runs = tmp_path / "runs.log"
    script = tmp_path / "firstlint.py"
    _write_script(
        script,
        f"""
        import sys
        path = sys.argv[1]
        with open({str(runs)!r}, "a") as log:
            log.write("run\\n")
        print(f"{{path}}:1:1: E1 first")
        """,
    )
    spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    engine = get_linter(spec)
    program = "x = 1\nx = 1\ny = 2\n"
    engine.setup(program)
    assert engine.check_subset([0]) == ((2, "E1", "first"),)
    engine.setup(program)
    assert engine.check_subset([1]) == ((1, "E1", "first"),)
    # the whole program and the one candidate text
    assert runs.read_text().count("run") == 2


def test_external_linter_includes_warnings_when_asked(tmp_path):
    script = tmp_path / "warnlint.py"
    _write_script(
        script,
        """
        import sys
        print(f"{sys.argv[1]}:1:1: W001 style nit")
        """,
    )
    base = f"python3 {script} {{path}}"
    quiet = check("x = 1\n", LinterSpec(kind="external", command_template=base))
    assert quiet == ()


@pytest.mark.parametrize(
    "pattern",
    [r"^(?P<code>E) (?P<line>\S+)(?P<message>)", r"^(?P<code>E) (?P<line>\d+)?.*?(?P<message>)$"],
)
def test_external_linter_output_line_without_a_line_number_is_a_lint_error(tmp_path, pattern):
    # the line group matches the temp path, or nothing at all
    spec = LinterSpec(kind="external", command_template="echo E {path}", finding_pattern=pattern)
    with pytest.raises(LintError) as info:
        check("x = 1\n", spec)
    assert str(info.value) == "no line number in linter output line 'E <file>'"


def test_external_linter_timeout(tmp_path):
    script = tmp_path / "slowlint.py"
    _write_script(script, "import time\ntime.sleep(5)\n")
    spec = LinterSpec(
        kind="external",
        command_template=f"python3 {script} {{path}}",
        timeout=0.2,
    )
    with pytest.raises(LinterTimeout):
        check("x = 1\n", spec)


def test_external_linter_respects_tmpdir(tmp_path, monkeypatch):
    workdir = tmp_path / "scratch"
    workdir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(workdir))
    script = tmp_path / "pathlint.py"
    _write_script(
        script,
        """
        import os
        import sys
        path = sys.argv[1]
        print(f"{path}:1:1: E1 {os.path.dirname(path)}")
        """,
    )
    spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    # the finding's message is the directory the temp file was written to
    assert [message for _, _, message in check("x = 1\n", spec)] == [str(workdir)]


def test_default_pattern_shape():
    import re

    m = re.match(DEFAULT_FINDING_PATTERN, "/tmp/x.py:12:1: F821 undefined name 'y'")
    assert m and m["line"] == "12" and m["code"] == "F821"


def test_engine_cache_reuse():
    spec = LinterSpec()
    assert get_linter(spec) is get_linter(LinterSpec())


def _program_mix(seed: int) -> list[str]:
    """Progen programs: some quote their own lines, some lost a line.

    A program quoted whole inside a triple-quoted string after its own code
    has each of its lines scanned both as code and inside a string, and a
    deletion that opens or closes the string swaps the two.  A program that
    lost a line may have findings.  The first two come again at the end,
    after other programs were set up.
    """
    rng = random.Random(seed)
    programs = []
    for i in range(12):
        lines = make_program(rng, 5, 25, rng.choice(("coupled", "mixed")))[1].splitlines()
        if i % 4 == 3:
            del lines[rng.randrange(len(lines))]
        if i % 3 == 2:
            quote = rng.choice(('"""', "'''"))
            lines += [f"text = {quote}", *lines, quote, "print(text)"]
        programs.append("".join(line + "\n" for line in lines))
    return programs + programs[:2]


def _samples(program: str, seed: int) -> tuple:
    """The program's findings and the ``inserted`` of three seeded samples."""
    samples = [backward_sample(program, rng=random.Random(seed * 10 + k)) for k in range(3)]
    return check(program), [seq.inserted for seq in samples]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_engine_samples_a_program_mix_as_a_fresh_engine_per_program(monkeypatch, seed):
    # the checker's line scans are keyed by text and entry state and shared by
    # every program's Analysis, so sharing them changes no sample or finding
    programs = _program_mix(seed)
    scans = []
    monkeypatch.setattr(pycheck, "_scan", recording_scan(scans))
    monkeypatch.setattr("lintseq.lint._ENGINES", {})
    shared = [_samples(program, seed) for program in programs]
    assert {text for text, entry in scans if entry} & {text for text, entry in scans if not entry}
    assert any(found for found, _ in shared)
    for program, result in zip(programs, shared):
        monkeypatch.setattr(pycheck, "_scan", lru_cache(None)(scan_line))
        monkeypatch.setattr("lintseq.lint._ENGINES", {})
        assert _samples(program, seed) == result


def test_engine_scans_stay_bounded_and_a_fresh_start_changes_nothing(monkeypatch):
    # the scan cache holds at most its size, and a scan evicted and made again,
    # between programs or while one is sampled, changes no sample or finding:
    # a scan is a pure function of its key.  Building an Analysis leaves the
    # cache as it was, and an unbounded cache never makes a scan twice
    rng = random.Random(5)
    mixes = [[make_program(rng, 5, 30, "mixed")[1] for _ in range(40)], _program_mix(11)]
    for programs in mixes:
        alone, own = [], []  # each program's results and scans on a fresh engine
        for program in programs:
            scan = lru_cache(None)(scan_line)
            monkeypatch.setattr(pycheck, "_scan", scan)
            monkeypatch.setattr("lintseq.lint._ENGINES", {})
            alone.append(_samples(program, 0))
            own.append(scan.cache_info().currsize)

        def one_engine(size: int | None):
            scan = lru_cache(size)(scan_line)
            monkeypatch.setattr(pycheck, "_scan", scan)
            monkeypatch.setattr("lintseq.lint._ENGINES", {})
            out = []
            for program in programs:
                at_setup = scan.cache_info()
                pycheck.Analysis(split_lines(program))
                assert scan.cache_info() == at_setup
                out.append(_samples(program, 0))
                assert pycheck._scan is scan
                assert scan.cache_info().currsize <= (size or sum(own))
            return out, scan.cache_info()

        # 5 is much smaller than the largest program's scans, so it evicts
        # while that program is sampled; 60 evicts between programs
        assert max(own) >= 4 * 5 and sum(own) > 2 * 60
        for size in (5, 60):
            bounded, info = one_engine(size)
            assert info.misses > info.currsize == size
            assert bounded == alone
        unbounded, info = one_engine(None)
        assert info.misses == info.currsize
        assert unbounded == alone


def _scan_slots(scan) -> dict:
    """Every slot of a scan, its cached continuation facts as a plain dict."""
    return {slot: dict(getattr(scan, slot)) if slot == "_cont" else getattr(scan, slot)
            for slot in type(scan).__slots__}


def test_sampling_never_changes_a_shared_scan(monkeypatch):
    # flow reads a scan's lists of name facts straight from the shared record,
    # so after sampling a program mix every entry still equals a fresh scan
    root = Path(__file__).parent.parent / "src" / "lintseq"
    programs = [path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))]
    programs += _program_mix(7)
    keys = []
    monkeypatch.setattr(pycheck, "_scan", recording_scan(keys))
    monkeypatch.setattr("lintseq.lint._ENGINES", {})
    for k, program in enumerate(programs):
        backward_sample(program, rng=random.Random(k))
    # the scans the samples were given, each the cache's one object for its key
    scans = {key: pycheck._scan(*key) for key in set(keys)}
    assert any(scan._cont for scan in scans.values())
    assert any(scan.uses for scan in scans.values())
    for (text, entry), scan in scans.items():
        fresh = scan_line(text, entry)
        for mode in scan._cont:
            fresh.cont_facts(mode)
        assert _scan_slots(scan) == _scan_slots(fresh), (text, entry)
