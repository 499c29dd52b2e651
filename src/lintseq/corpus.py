"""Corpus I/O: line-delimited JSON in, edit-sequence records out.

Input records need a ``program`` string; ``instruction`` and ``id`` are
optional (a missing id becomes the zero-padded ordinal of the example
among accepted records).  Line endings are normalized to LF at load; a
program keeps its final newline, or its lack of one, so resolved programs
can be compared byte-for-byte against their source.

Output records are one JSON object per line with a fixed key order, so
identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

from .diffkit import split_lines

RECORD_KEYS = (
    "source_id",
    "sample_index",
    "instruction",
    "program",
    "edits",
    "training_text",
    "num_edits",
    "seed_path",
)


class CorpusError(Exception):
    pass


def normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


@dataclass(frozen=True)
class SourceExample:
    """One (instruction, program) pair after normalization."""

    id: str
    instruction: str
    program: str
    line_count: int

    @staticmethod
    def build(id: str, instruction: str, program: str) -> "SourceExample":
        program = normalize_newlines(program)
        return SourceExample(
            id=id,
            instruction=normalize_newlines(instruction),
            program=program,
            line_count=len(split_lines(program)),
        )


@dataclass(frozen=True)
class EditSequenceRecord:
    """One sampled trajectory, serialized and ready for training."""

    source_id: str
    sample_index: int
    instruction: str
    program: str
    edits: tuple[str, ...]
    training_text: str
    num_edits: int
    seed_path: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.num_edits != len(self.edits):
            raise ValueError("num_edits disagrees with the edits list")

    def to_json(self) -> str:
        payload = {
            "source_id": self.source_id,
            "sample_index": self.sample_index,
            "instruction": self.instruction,
            "program": self.program,
            "edits": list(self.edits),
            "training_text": self.training_text,
            "num_edits": self.num_edits,
            "seed_path": list(self.seed_path),
        }
        return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "EditSequenceRecord":
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise CorpusError("record line is not a JSON object")
        missing = [k for k in RECORD_KEYS if k not in obj]
        if missing:
            raise CorpusError(f"record missing keys: {', '.join(missing)}")
        for key in ("source_id", "instruction", "program", "training_text"):
            if not isinstance(obj[key], str):
                raise CorpusError(f"{key} must be a string")
        for key in ("sample_index", "num_edits"):
            # JSON integers only; type() also rules out the bool subclass
            if type(obj[key]) is not int:
                raise CorpusError(f"{key} must be an integer")
        edits = obj["edits"]
        if not (isinstance(edits, list) and all(isinstance(e, str) for e in edits)):
            raise CorpusError("edits must be a list of strings")
        seed_path = obj["seed_path"]
        if not (isinstance(seed_path, list) and len(seed_path) == 3
                and all(type(v) is int for v in seed_path)):
            raise CorpusError("seed_path must be a list of three integers")
        return EditSequenceRecord(
            source_id=obj["source_id"],
            sample_index=obj["sample_index"],
            instruction=obj["instruction"],
            program=obj["program"],
            edits=tuple(edits),
            training_text=obj["training_text"],
            num_edits=obj["num_edits"],
            seed_path=tuple(seed_path),
        )


@dataclass
class LoadResult:
    examples: list[SourceExample]
    skipped: list[tuple[int, str]]  # (1-based input line, reason)


def load_corpus(path: str | os.PathLike) -> LoadResult:
    """Read a corpus file, skipping malformed records with diagnostics.

    A file that is not valid UTF-8 is a fatal error.
    """
    examples: list[SourceExample] = []
    skipped: list[tuple[int, str]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8: {exc}") from None
    for lineno, raw in enumerate(raw_lines, 1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            skipped.append((lineno, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(obj, dict):
            skipped.append((lineno, "record is not a JSON object"))
            continue
        program = obj.get("program")
        if not isinstance(program, str):
            skipped.append((lineno, "missing or non-string 'program'"))
            continue
        instruction = obj.get("instruction", "")
        if not isinstance(instruction, str):
            skipped.append((lineno, "non-string 'instruction'"))
            continue
        rec_id = obj.get("id")
        if rec_id is not None and not isinstance(rec_id, str):
            skipped.append((lineno, "non-string 'id'"))
            continue
        if rec_id is None:
            rec_id = f"{len(examples):06d}"
        examples.append(SourceExample.build(rec_id, instruction, program))
    return LoadResult(examples, skipped)


def deduplicate(examples: Sequence[SourceExample]) -> tuple[list[SourceExample], int]:
    """Drop exact (instruction, program) duplicates, keeping first occurrences."""
    seen: set[tuple[str, str]] = set()
    kept: list[SourceExample] = []
    for ex in examples:
        key = (ex.instruction, ex.program)
        if key in seen:
            continue
        seen.add(key)
        kept.append(ex)
    return kept, len(examples) - len(kept)


@contextmanager
def atomic_output(path: str | os.PathLike) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` only if the block completes.

    It gets the mode a new file would; on any exception it is removed.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".lintseq-", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_records(records: Iterable[EditSequenceRecord], path: str | os.PathLike) -> int:
    """Write records as JSONL, atomically; returns the record count."""
    with atomic_output(path) as fh:
        return dump_records(records, fh)


def dump_records(records: Iterable[EditSequenceRecord], fh: IO[str]) -> int:
    count = 0
    for rec in records:
        fh.write(rec.to_json())
        fh.write("\n")
        count += 1
    return count


def read_records(path: str | os.PathLike) -> Iterator[EditSequenceRecord]:
    """Iterate records from a JSONL file; malformed lines are fatal here."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.rstrip("\n")
            if not raw.strip():
                continue
            try:
                record = EditSequenceRecord.from_json(raw)
            except (CorpusError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: bad record: {exc}") from None
            yield record
