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
In the cascade a line number is a source line.  ``setup`` returns the
engine's own list of kept source indices, and each ``check_subset``
deletes the indices it names from that list and checks the lines left.
The built-in engine keeps the last program's setup, whose Analysis edits
one walk in place and restarts each sample from a copy of the
whole-program walk, so a check re-walks only the lines a deletion changed.
It also owns the line scans, keyed by line text and entry string state,
that every program's Analysis shares, so a line met in an earlier program
is not scanned again; between programs it starts a fresh mapping once the
held one is over a fixed bound.  The external one caches findings by
content hash as the tool numbered the candidate's lines, and is the one
place that maps them to source lines.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
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

            if not any("{path}" in part for part in shlex.split(self.command_template)):
                raise ValueError("external linter requires a command template with {path}")
            try:
                groups = re.compile(self.finding_pattern).groupindex
            except re.error as exc:
                raise ValueError(f"bad finding pattern: {exc}") from None
            if not {"line", "code", "message"} <= groups.keys():
                raise ValueError("finding pattern needs named groups line, code and message")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be a finite positive number, not {self.timeout!r}")


#: entries the built-in engine's line scans may hold before a new program's
#: setup starts a fresh mapping; a scan with its name facts takes about 0.9 KB
_SCANS_BOUND = 2048


class BuiltinLinter:
    def __init__(self, spec: LinterSpec) -> None:
        self.spec = spec
        # line scans by (text, entry string state), shared by every program
        self._scans: dict[tuple[str, str], pycheck.LineScan] = {}
        # the last program set up, its Analysis and its baseline findings
        self._program: str | None = None
        self._analysis: pycheck.Analysis | None = None
        self._baseline: tuple[Finding, ...] = ()

    def setup(self, program: str) -> tuple[tuple[str, ...], list[int], tuple[Finding, ...]]:
        """The program's lines, the Analysis's kept list, and baseline findings.

        The last program's setup is kept, so every sample of one example
        shares one baseline.  The Analysis is restarted from the
        whole-program walk its first check made here for the baseline, so it
        keeps every line again and each sample's cascade resumes from that
        walk.  The baseline is a tuple, so no caller of ``check`` can change
        what later samples are judged against.

        Every program's Analysis shares the engine's line scans, so a line
        text met again is not scanned again.  A new program starts a fresh
        mapping once the held one is over ``_SCANS_BOUND`` entries, never
        while a program is sampled, so the mapping holds at most that many
        entries plus one program's.
        """
        if program != self._program:
            self._program = None  # a baseline check that raises leaves no setup to restart
            if len(self._scans) > _SCANS_BOUND:
                self._scans = {}
            self._analysis = pycheck.Analysis(split_lines(program), self._scans)
            self._baseline = tuple(self.check_subset(()))
            self._program = program
        else:
            self._analysis.restart()
        return self._analysis.lines, self._analysis.kept, self._baseline

    def check_text(self, text: str) -> tuple[Finding, ...]:
        return self.setup(text)[2]

    def check_subset(self, deleted: Iterable[int]) -> list[Finding]:
        return pycheck.flow(self._analysis, deleted)


class ExternalLinter:
    def __init__(self, spec: LinterSpec) -> None:
        import shlex

        self.spec = spec
        # findings by content hash, for texts of the last program set up only
        self._program: str | None = None
        self._cache: dict[bytes, tuple[Finding, ...]] = {}
        self._lines: tuple[str, ...] = ()
        self._kept: list[int] = []
        self._pattern = re.compile(spec.finding_pattern)
        self._argv = shlex.split(spec.command_template)

    def setup(self, program: str) -> tuple[tuple[str, ...], list[int], tuple[Finding, ...]]:
        """As BuiltinLinter.setup; each setup starts a fresh kept list.

        A program other than the last one set up starts a fresh cache.
        """
        if program != self._program:
            self._program, self._cache = program, {}
        self._lines = tuple(split_lines(program))
        self._kept = list(range(len(self._lines)))
        return self._lines, self._kept, self._findings(program)

    def check_text(self, text: str) -> tuple[Finding, ...]:
        return self.setup(text)[2]

    def check_subset(self, deleted: Iterable[int]) -> tuple[Finding, ...]:
        kept, lines = self._kept, self._lines
        for idx in deleted:
            kept.remove(idx)
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
