"""Lint checking with trace comparison between program states.

A program state is judged against the original program it was carved
from, not against an absolute notion of cleanliness: the candidate counts
as error-free *relative* to the baseline when none of its findings, line
numbers erased, exceeds the baseline's multiset of (code, message) pairs.
That definition is what lets sources that never linted clean in the first
place still be decomposed, down to the empty program.

Two checker kinds exist behind one interface: the built-in line-oriented
surface checker (fast, no subprocess, understands partially deleted
programs) and an adapter that shells out to an external tool and parses
its stdout with a configurable pattern.  The built-in engine keeps the
setup of the last program it checked; the external one caches reports by
content hash in a per-process map with last-writer-wins semantics.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import subprocess
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from . import pycheck
from .diffkit import join_lines, split_lines

#: parses ``path:line:col: CODE message`` (the common terse lint format)
DEFAULT_FINDING_PATTERN = (
    r"^.+?:(?P<line>\d+):\d+:\s*(?P<code>[A-Za-z]\w*):?\s*(?P<message>.*)$"
)


class LintError(Exception):
    """Base class for lint-side failures."""


class LinterTimeout(LintError):
    """The external linter exceeded its configured timeout."""


@dataclass(frozen=True)
class LintFinding:
    code: str
    message: str
    line: int
    severity: str = "error"


@dataclass(frozen=True)
class LintReport:
    """Findings for one program plus their line-erased fingerprint."""

    findings: tuple[LintFinding, ...]
    fingerprint: tuple[tuple[str, str], ...] = field(default=())

    @staticmethod
    def from_findings(findings: Sequence[LintFinding]) -> "LintReport":
        ordered = tuple(sorted(findings, key=lambda f: (f.line, f.code, f.message)))
        fp = tuple(sorted((f.code, f.message) for f in ordered))
        return LintReport(ordered, fp)

    @property
    def is_clean(self) -> bool:
        return not self.findings


@dataclass(frozen=True)
class LinterSpec:
    """Configuration of a checker.

    ``kind`` is ``builtin`` or ``external``.  For external tools,
    ``command_template`` is a shell-split command whose ``{path}``
    placeholder receives a temp file holding the program;
    ``finding_pattern`` must expose named groups ``line``, ``code`` and
    ``message``.  The exit status of the tool is ignored (linters signal
    findings through it).  Findings whose code starts with E or F count
    as errors; others are warnings and are dropped from reports unless
    ``include_warnings`` is set.
    """

    kind: str = "builtin"
    command_template: str = ""
    finding_pattern: str = DEFAULT_FINDING_PATTERN
    timeout: float = 10.0
    include_warnings: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("builtin", "external"):
            raise ValueError(f"unknown linter kind: {self.kind!r}")
        if self.kind == "external" and not self.command_template:
            raise ValueError("external linter requires a command template")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


def _content_key(text: str) -> bytes:
    return hashlib.sha1(text.encode("utf-8", "surrogatepass")).digest()


class BuiltinLinter:
    def __init__(self, spec: LinterSpec) -> None:
        self.spec = spec
        # (program, lines, analysis, report) of the last program set up
        self._last: tuple[str, tuple[str, ...], pycheck.Analysis, LintReport] | None = None

    def setup(self, program: str) -> tuple[tuple[str, ...], pycheck.Analysis, LintReport]:
        """The program's lines, scan cache and report.

        The last program's setup is kept, so every sample of one example
        shares one scan cache and one baseline report.
        """
        last = self._last
        if last is None or last[0] != program:
            lines = tuple(split_lines(program))
            analysis = pycheck.Analysis(lines)
            report = self.check_subset(analysis, range(len(lines)))
            last = self._last = (program, lines, analysis, report)
        return last[1:]

    def check_text(self, text: str) -> LintReport:
        return self.setup(text)[2]

    def check_subset(self, analysis: pycheck.Analysis, kept: Sequence[int]) -> LintReport:
        return self._report(pycheck.flow(analysis, kept))

    @staticmethod
    def _report(raw: list[tuple[int, str, str]]) -> LintReport:
        return LintReport.from_findings(
            [LintFinding(code, message, line) for line, code, message in raw]
        )


class ExternalLinter:
    def __init__(self, spec: LinterSpec) -> None:
        self.spec = spec
        self._cache: dict[bytes, LintReport] = {}
        self._pattern = re.compile(spec.finding_pattern)
        self._argv = shlex.split(spec.command_template)
        if not any("{path}" in part for part in self._argv):
            raise ValueError("command template must contain a {path} placeholder")

    def check_text(self, text: str) -> LintReport:
        key = _content_key(text)
        report = self._cache.get(key)
        if report is None:
            report = self._run(text)
            self._cache[key] = report
        return report

    def setup(self, program: str) -> tuple[tuple[str, ...], tuple[str, ...], LintReport]:
        """As BuiltinLinter.setup; the lines double as check_subset's input."""
        lines = tuple(split_lines(program))
        return lines, lines, self.check_text(program)

    def check_subset(self, lines: Sequence[str], kept: Sequence[int]) -> LintReport:
        return self.check_text(join_lines(lines[i] for i in kept))

    def _run(self, text: str) -> LintReport:
        tmpdir = os.environ.get("LINTSEQ_TMPDIR") or None
        fd, path = tempfile.mkstemp(suffix=".py", dir=tmpdir)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [part.replace("{path}", path) for part in self._argv]
            try:
                proc = subprocess.run(
                    argv,
                    capture_output=True,
                    text=True,
                    timeout=self.spec.timeout,
                )
            except subprocess.TimeoutExpired as exc:
                raise LinterTimeout(
                    f"linter exceeded {self.spec.timeout:g}s"
                ) from exc
            except OSError as exc:
                raise LintError(f"failed to run linter: {exc}") from exc
            findings = []
            for out_line in proc.stdout.splitlines():
                m = self._pattern.match(out_line)
                if m is None:
                    continue
                code = m.group("code")
                severity = "error" if code[:1] in ("E", "F") else "warning"
                if severity != "error" and not self.spec.include_warnings:
                    continue
                findings.append(
                    LintFinding(
                        code=code,
                        message=_normalize_message(m.group("message"), path),
                        line=int(m.group("line")),
                        severity=severity,
                    )
                )
            return LintReport.from_findings(findings)
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass


def _normalize_message(message: str, path: str) -> str:
    msg = message.replace(path, "<file>")
    msg = re.sub(r"\bline \d+\b", "line ?", msg)
    return msg.strip()


_ENGINES: dict[LinterSpec, BuiltinLinter | ExternalLinter] = {}
_ENGINES_LOCK = threading.Lock()


def get_linter(spec: LinterSpec) -> BuiltinLinter | ExternalLinter:
    with _ENGINES_LOCK:
        engine = _ENGINES.get(spec)
        if engine is None:
            engine = BuiltinLinter(spec) if spec.kind == "builtin" else ExternalLinter(spec)
            _ENGINES[spec] = engine
        return engine


def check(program: str, linter: LinterSpec | None = None) -> LintReport:
    """Lint one program; deterministic for fixed content and spec."""
    return get_linter(linter or LinterSpec()).check_text(program)


def extra_findings(
    candidate: LintReport, baseline: LintReport
) -> list[LintFinding]:
    """Candidate findings in excess of the baseline (code, message) multiset.

    Findings are consumed in line order, so when multiplicities collide
    the later occurrences are the ones reported as new.
    """
    allowance = Counter(baseline.fingerprint)
    out = []
    for f in candidate.findings:
        key = (f.code, f.message)
        if allowance.get(key, 0) > 0:
            allowance[key] -= 1
        else:
            out.append(f)
    return out


def is_error_free_relative(
    candidate: str, baseline_report: LintReport, linter: LinterSpec | None = None
) -> bool:
    """True when the candidate has no finding beyond the baseline multiset.

    This is the law the sampler applies: a candidate may lose baseline
    findings (the empty program of a dirty source passes) but never gain one.
    """
    return not extra_findings(check(candidate, linter), baseline_report)
