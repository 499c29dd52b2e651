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
its stdout with a configurable pattern.  A finding is one
``(line, code, message)`` triple, and ``check_text`` and ``check_subset``
both return them sorted, as ``pycheck.flow`` does.

Both engines answer the sampler's cascade step with one shared ``step``.
``setup`` returns a program's lines and the engine's own list of kept
source indices, and holds the program's findings as the baseline.
``step(first)`` deletes ``first``, then the lines of every finding that
``extra_findings`` calls new, until there is none, and returns the source
indices it deleted.  Each ``check_subset`` in it deletes the indices it
names from the kept list and checks the lines left; its findings name
source lines.  The built-in engine keeps the last program's setup, whose
Analysis edits one walk in place and restarts each sample from a copy of
the whole-program walk, so a check re-walks only the lines a deletion
changed.  The external one caches findings by content hash as the tool
numbered the candidate's lines, and is the one place that maps them to
source lines.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
import threading
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Sequence

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


class SamplerError(Exception):
    """A cascade step's new findings lie outside the candidate, so it cannot end."""


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
        if self.kind == "external":
            import shlex  # only the external linter's modules load it, not a builtin run

            try:
                argv = shlex.split(self.command_template)
            except ValueError as exc:
                raise ValueError(
                    f"bad external linter command template {self.command_template!r}: {exc}"
                ) from None
            if not any("{path}" in part for part in argv):
                raise ValueError("external linter requires a command template with {path}")
            try:
                groups = re.compile(self.finding_pattern).groupindex
            except re.error as exc:
                raise ValueError(f"bad finding pattern: {exc}") from None
            if not {"line", "code", "message"} <= groups.keys():
                raise ValueError("finding pattern needs named groups line, code and message")
        # NaN fails both comparisons, and an int past the largest float fails the second
        if not 0 < self.timeout <= sys.float_info.max:
            raise ValueError(f"timeout must be a finite positive number, not {self.timeout!r}")


class _Engine:
    """The cascade step of both engines, on the last program set up.

    ``setup`` sets the source ``_lines`` and their ``_baseline`` findings;
    ``check_subset`` deletes source indices from the kept list and returns
    the findings of the lines left, numbered as source lines.
    """

    def step(self, first: int) -> tuple[int, ...]:
        """Delete ``first``, then the lines of new findings until none is left.

        A finding is new as ``extra_findings`` judges it against the
        baseline.  Returns the sorted source indices the step deleted.  New
        findings that all name lines outside the candidate delete nothing,
        so they raise SamplerError instead of looping.
        """
        step, deleted = [first], [first]
        while extras := extra_findings(self.check_subset(deleted), self._baseline):
            deleted = {line - 1 for line, _, _ in extras if 0 < line <= len(self._lines)}
            if not deleted:
                raise SamplerError("finding lines fall outside the candidate; cannot stabilize")
            step += deleted
        return tuple(sorted(step))


class BuiltinLinter(_Engine):
    def __init__(self, spec: LinterSpec) -> None:
        self.spec = spec
        # the last program set up; setup makes its Analysis
        self._program: str | None = None

    def setup(self, program: str) -> tuple[tuple[str, ...], list[int]]:
        """The program's lines and the Analysis's kept list.

        The last program's setup is kept, so every sample of one example
        shares one baseline.  The Analysis is restarted from the
        whole-program walk its first check made here for the baseline, so it
        keeps every line again and each sample's cascade resumes from that
        walk.  The baseline is a tuple, so no caller of ``check`` can change
        what later samples are judged against.
        """
        if program != self._program:
            self._program = None  # a baseline check that raises leaves no setup to restart
            self._analysis = pycheck.Analysis(split_lines(program))
            self._lines = self._analysis.lines
            self._baseline = tuple(self.check_subset(()))
            self._program = program
        else:
            self._analysis.restart()
        return self._lines, self._analysis.kept

    def check_text(self, text: str) -> tuple[Finding, ...]:
        self.setup(text)
        return self._baseline

    def check_subset(self, deleted: Iterable[int]) -> list[Finding]:
        return pycheck.flow(self._analysis, deleted)


class ExternalLinter(_Engine):
    def __init__(self, spec: LinterSpec) -> None:
        import shlex

        self.spec = spec
        # findings by content hash, for texts of the last program set up only
        self._program: str | None = None
        self._cache: dict[bytes, tuple[Finding, ...]] = {}
        self._pattern = re.compile(spec.finding_pattern)
        self._argv = shlex.split(spec.command_template)

    def setup(self, program: str) -> tuple[tuple[str, ...], list[int]]:
        """As BuiltinLinter.setup; each setup starts a fresh kept list.

        A program other than the last one set up starts a fresh cache.
        """
        if program != self._program:
            self._program, self._cache = program, {}
        self._lines = tuple(split_lines(program))
        self._kept = list(range(len(self._lines)))
        self._baseline = self._findings(program)
        return self._lines, self._kept

    def check_text(self, text: str) -> tuple[Finding, ...]:
        self.setup(text)
        return self._baseline

    def check_subset(self, deleted: Iterable[int]) -> tuple[Finding, ...]:
        kept, lines = self._kept, self._lines
        pycheck.cut_kept(kept, deleted)  # as flow does: a bad index leaves kept as it was
        if not kept:
            return ()  # the empty program: no findings, and the tool does not run
        # candidate line L is source line kept[L - 1] + 1, mapped after the cache
        # since equal texts can keep different lines; a line before the candidate
        # maps to 0, one past its end as far past the source's, so order holds
        n, past = len(kept), len(lines) - len(kept)
        return tuple(
            (kept[line - 1] + 1 if 0 < line <= n else line + past if line > n else 0, code, message)
            for line, code, message in self._findings(join_lines(lines[i] for i in kept))
        )

    def _findings(self, text: str) -> tuple[Finding, ...]:
        import hashlib  # only an external run loads OpenSSL, as only it runs a process

        key = hashlib.sha1(text.encode("utf-8", "surrogatepass")).digest()
        found = self._cache.get(key)
        if found is None:
            found = self._cache[key] = self._run(text)
        return found

    def _run(self, text: str) -> tuple[Finding, ...]:
        import subprocess

        path = None
        try:
            # an input file that cannot be written, like a linter that cannot
            # start, fails every example alike: LintError, not a per-example skip
            try:
                fd, path = tempfile.mkstemp(suffix=".py")
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                argv = [part.replace("{path}", path) for part in self._argv]
                # the tool's output is read as UTF-8, as its input is written,
                # whatever the locale; a byte that does not decode is replaced
                proc = subprocess.run(
                    argv, capture_output=True, encoding="utf-8", errors="replace",
                    timeout=self.spec.timeout,
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
                try:
                    line = int(m.group("line"))
                except (TypeError, ValueError):  # no line group match, or not a number
                    shown = out_line.replace(path, "<file>")
                    raise LintError(f"no line number in linter output line {shown!r}") from None
                findings.append((line, code, _normalize_message(m.group("message"), path)))
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

    Both are sorted ``(line, code, message)`` triples, as ``check_text``
    and ``check_subset`` return them.  Line numbers are erased for the
    comparison, and findings are consumed in line order, so when
    multiplicities collide the later occurrences are the ones reported
    as new.  This is the one definition of relative error-freeness.
    """
    if not candidate or not baseline:
        return list(candidate)
    allowance = Counter([(code, message) for _, code, message in baseline])
    out = []
    for finding in candidate:
        key = finding[1:]
        if allowance[key] > 0:
            allowance[key] -= 1
        else:
            out.append(finding)
    return out
