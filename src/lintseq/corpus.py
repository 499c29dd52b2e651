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
        seed_path = obj["seed_path"]
        if not (isinstance(seed_path, list) and len(seed_path) == 3):
            raise CorpusError("seed_path must be a three-element list")
        return EditSequenceRecord(
            source_id=obj["source_id"],
            sample_index=obj["sample_index"],
            instruction=obj["instruction"],
            program=obj["program"],
            edits=tuple(obj["edits"]),
            training_text=obj["training_text"],
            num_edits=obj["num_edits"],
            seed_path=tuple(seed_path),
        )


@dataclass
class LoadResult:
    examples: list[SourceExample]
    skipped: list[tuple[int, str]]  # (1-based input line, reason)

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


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


def write_records(
    records: Iterable[EditSequenceRecord], path: str | os.PathLike
) -> int:
    """Write records as JSONL, atomically; returns the record count."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    count = 0
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".records-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            count = dump_records(records, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return count


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
                yield EditSequenceRecord.from_json(raw)
            except (json.JSONDecodeError, CorpusError, TypeError) as exc:
                raise CorpusError(f"{path}:{lineno}: bad record: {exc}") from None
