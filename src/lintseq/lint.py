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
its stdout with a configurable pattern.  A finding is one sorted
``(line, code, message)`` triple, as ``pycheck.flow`` returns it, in the
sampling cascade (``setup``, ``check_subset``, ``extra_findings``) and in
``check_text`` alike.
The built-in engine keeps the setup of the last program it checked, whose
``pycheck.Analysis`` also keeps the last walk, so consecutive checks of
one program's subsets re-walk only the lines a deletion changed; the
external one caches findings by content hash for the last program set up.
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
from contextlib import suppress
from dataclasses import dataclass
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


#: one finding as ``pycheck.flow`` returns it: (line, code, message)
Finding = tuple[int, str, str]


@dataclass(frozen=True)
class LinterSpec:
    """Configuration of a checker.

    ``kind`` is ``builtin`` or ``external``.  For external tools,
    ``command_template`` is a shell-split command whose ``{path}``
    placeholder receives a temp file holding the program;
    ``finding_pattern`` must expose named groups ``line``, ``code`` and
    ``message``.  The exit status of the tool is ignored (linters signal
    findings through it).  Only findings whose code starts with E or F
    count; any other code is a warning and is dropped from reports.
    """

    kind: str = "builtin"
    command_template: str = ""
    finding_pattern: str = DEFAULT_FINDING_PATTERN
    timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in ("builtin", "external"):
            raise ValueError(f"unknown linter kind: {self.kind!r}")
        if self.kind == "external" and not self.command_template:
            raise ValueError("external linter requires a command template")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class BuiltinLinter:
    def __init__(self, spec: LinterSpec) -> None:
        self.spec = spec
        # (program, lines, analysis, baseline) of the last program set up
        self._last: tuple[str, tuple[str, ...], pycheck.Analysis, tuple[Finding, ...]] | None = None

    def setup(self, program: str) -> tuple[tuple[str, ...], pycheck.Analysis, tuple[Finding, ...]]:
        """The program's lines, scan cache and baseline findings.

        The last program's setup is kept, so every sample of one example
        shares one scan cache and one baseline, and each ``check_subset``
        on the Analysis resumes from the previous walk.  The baseline is
        the sorted ``(line, code, message)`` triples of the whole program,
        a tuple, so no caller of ``check`` can change what later samples
        of the program are judged against.
        """
        last = self._last
        if last is None or last[0] != program:
            lines = tuple(split_lines(program))
            analysis = pycheck.Analysis(lines)
            baseline = tuple(self.check_subset(analysis, range(len(lines))))
            last = self._last = (program, lines, analysis, baseline)
        return last[1:]

    def check_text(self, text: str) -> tuple[Finding, ...]:
        return self.setup(text)[2]

    def check_subset(self, analysis: pycheck.Analysis, kept: Sequence[int]) -> list[Finding]:
        return pycheck.flow(analysis, kept)


class ExternalLinter:
    def __init__(self, spec: LinterSpec) -> None:
        self.spec = spec
        # findings by content hash, for texts of the last program set up only
        self._program: str | None = None
        self._cache: dict[bytes, tuple[Finding, ...]] = {}
        self._pattern = re.compile(spec.finding_pattern)
        self._argv = shlex.split(spec.command_template)
        if not any("{path}" in part for part in self._argv):
            raise ValueError("command template must contain a {path} placeholder")

    def setup(self, program: str) -> tuple[tuple[str, ...], tuple[str, ...], tuple[Finding, ...]]:
        """As BuiltinLinter.setup; the lines double as check_subset's input.

        A program other than the last one set up starts a fresh cache.
        """
        if program != self._program:
            self._program, self._cache = program, {}
        lines = tuple(split_lines(program))
        return lines, lines, self._findings(program)

    def check_text(self, text: str) -> tuple[Finding, ...]:
        return self.setup(text)[2]

    def check_subset(self, lines: Sequence[str], kept: Sequence[int]) -> tuple[Finding, ...]:
        return self._findings(join_lines(lines[i] for i in kept))

    def _findings(self, text: str) -> tuple[Finding, ...]:
        key = hashlib.sha1(text.encode("utf-8", "surrogatepass")).digest()
        found = self._cache.get(key)
        if found is None:
            found = self._cache[key] = self._run(text)
        return found

    def _run(self, text: str) -> tuple[Finding, ...]:
        tmpdir = os.environ.get("LINTSEQ_TMPDIR") or None
        path = None
        try:
            # an input file that cannot be written, like a linter that cannot
            # start, fails every example alike: LintError, not a per-example skip
            try:
                fd, path = tempfile.mkstemp(suffix=".py", dir=tmpdir)
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                argv = [part.replace("{path}", path) for part in self._argv]
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=self.spec.timeout
                )
            except subprocess.TimeoutExpired as exc:
                raise LinterTimeout(f"linter exceeded {self.spec.timeout:g}s") from exc
            except OSError as exc:
                raise LintError(f"failed to run linter: {exc}") from exc
            findings = []
            for out_line in proc.stdout.splitlines():
                m = self._pattern.match(out_line)
                if m is None:
                    continue
                code = m.group("code")
                if code[:1] not in ("E", "F"):
                    continue
                message = _normalize_message(m.group("message"), path)
                findings.append((int(m.group("line")), code, message))
            # the cascade consumes findings in line order, as flow returns them
            return tuple(sorted(findings))
        finally:
            if path is not None:
                with suppress(OSError):
                    os.unlink(path)


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


def check(program: str, linter: LinterSpec | None = None) -> tuple[Finding, ...]:
    """Lint one program: its sorted ``(line, code, message)`` triples.

    Deterministic for fixed content and spec.
    """
    return get_linter(linter or LinterSpec()).check_text(program)


def extra_findings(candidate: Sequence[Finding], baseline: Sequence[Finding]) -> list[Finding]:
    """Candidate findings in excess of the baseline (code, message) multiset.

    Both are sorted ``(line, code, message)`` triples, as ``setup`` and
    ``check_subset`` return them.  Line numbers are erased for the
    comparison, and findings are consumed in line order, so when
    multiplicities collide the later occurrences are the ones reported
    as new.  This is the one definition of relative error-freeness.
    """
    allowance = Counter([(code, message) for _, code, message in baseline])
    out = []
    for finding in candidate:
        key = finding[1:]
        if allowance[key] > 0:
            allowance[key] -= 1
        else:
            out.append(finding)
    return out
