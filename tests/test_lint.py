import os
import random
import stat
import textwrap

import pytest

from lintseq.lint import (
    DEFAULT_FINDING_PATTERN,
    LinterSpec,
    LinterTimeout,
    check,
    extra_findings,
    get_linter,
)
from lintseq.sampler import backward_sample
from tests.oracles import findings, is_error_free_relative


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
        return [backward_sample(src, rng=random.Random(i)).signature() for i in range(6)]

    # the engine now holds src's setup from check(); a fresh one builds it anew
    after_check = signatures()
    monkeypatch.setattr("lintseq.lint._ENGINES", {})
    assert signatures() == after_check


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
    with pytest.raises(ValueError):
        LinterSpec(timeout=0)


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
        print(f"{path}:3:1: E101 bad thing in {path} on line 3")
        print(f"{path}:1:5: W201 just a warning")
        sys.exit(1)
        """,
    )
    spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    r = check("a = 1\nb = 2\nc = 3\n", spec)
    # warnings are dropped by default; messages hide the temp path and line
    assert [(code, line) for line, code, _ in r] == [("E101", 3)]
    assert r[0][2] == "bad thing in <file> on line ?"


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
    # message the baseline allows once is the one reported as new
    engine = get_linter(spec)
    lines, _, _ = engine.setup("a = 1\nb = 2\n")
    found = engine.check_subset(lines, [1])
    assert [line for line, _, _ in found] == [1, 2, 5, 5]
    allowed_once = [(9, "E1", "same"), (9, "Ea", "first"), (9, "Eb", "later")]
    assert extra_findings(found, allowed_once) == [(5, "E1", "same")]


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
    lines, _, _ = engine.setup(first)
    engine.check_subset(lines, [1])
    engine.setup(first)
    assert runs.read_text().count("run") == 2  # the second setup hit the cache
    engine.setup(second)
    assert list(engine._cache.values()) == [((1, "E1", "c = 3"),)]
    # check_text goes through setup too
    assert [message for _, _, message in check(first, spec)] == ["a = 1"]
    assert list(engine._cache.values()) == [((1, "E1", "a = 1"),)]
    assert runs.read_text().count("run") == 4


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
    monkeypatch.setenv("LINTSEQ_TMPDIR", str(workdir))
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
