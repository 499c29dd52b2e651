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

import errno
import json
import os
import re
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .diffkit import split_lines

try:
    # the interpreter's builtin sha256, as random.py takes its sha512: hashlib
    # would load OpenSSL's libcrypto into every process to hash a seed tag or a
    # dedup key; the digests are the same bytes
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

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

# one reused encoder for records, resolve rows and --json output: compact,
# with non-ASCII text written as it is
_compact_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


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
    seed_path: tuple[int, int, int]

    @property
    def num_edits(self) -> int:
        return len(self.edits)

    def to_json(self) -> str:
        # tuples encode as JSON arrays
        payload = {key: getattr(self, key) for key in RECORD_KEYS}
        return _compact_json(payload)

    @staticmethod
    def from_json(line: str) -> "EditSequenceRecord":
        obj = _parse_json(line)
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
        if obj["num_edits"] != len(edits):
            raise ValueError("num_edits disagrees with the edits list")
        return EditSequenceRecord(
            source_id=obj["source_id"],
            sample_index=obj["sample_index"],
            instruction=obj["instruction"],
            program=obj["program"],
            edits=tuple(edits),
            training_text=obj["training_text"],
            seed_path=tuple(seed_path),
        )


# a \uD800-\uDFFF escape: half of a surrogate pair, or a lone surrogate
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _parse_json(text: str):
    """``json.loads``, raising ``JSONDecodeError`` also for nesting too deep to
    decode and for a lone surrogate, which no UTF-8 output can hold."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise json.JSONDecodeError("lone surrogate", text, 0) from None
    return obj


def jsonl_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """Each non-blank line of a JSONL file, newline stripped, with its 1-based number.

    A file that is not valid UTF-8 is a fatal error, raised when the reader
    reaches the undecodable bytes.  A leading byte-order mark is dropped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                if raw.strip():
                    yield lineno, raw.rstrip("\n")
    except UnicodeDecodeError as exc:
        # exc's byte position counts from the start of a read chunk, not the file
        raise CorpusError(f"{path}: not valid UTF-8: {exc.reason}") from None


def load_corpus(path: str | os.PathLike) -> Iterator[SourceExample | tuple[int, str]]:
    """Read a corpus file lazily, one line at a time.

    Yields each accepted record as a ``SourceExample`` and each malformed
    one as a ``(1-based input line, reason)`` pair, in file order.
    """
    accepted = 0
    for lineno, raw in jsonl_lines(path):
        try:
            obj = _parse_json(raw)
        except json.JSONDecodeError as exc:
            yield lineno, f"invalid JSON: {exc.msg}"
            continue
        if not isinstance(obj, dict):
            yield lineno, "record is not a JSON object"
            continue
        program = obj.get("program")
        if not isinstance(program, str):
            yield lineno, "missing or non-string 'program'"
            continue
        instruction = obj.get("instruction", "")
        if not isinstance(instruction, str):
            yield lineno, "non-string 'instruction'"
            continue
        rec_id = obj.get("id")
        if rec_id is not None and not isinstance(rec_id, str):
            yield lineno, "non-string 'id'"
            continue
        if rec_id is None:
            rec_id = f"{accepted:06d}"
        accepted += 1
        yield SourceExample.build(rec_id, instruction, program)


def deduplicate(examples: Iterable[SourceExample]) -> Iterator[SourceExample]:
    """Drop exact (instruction, program) duplicates, keeping first occurrences.

    Only a sha256 digest of each length-prefixed pair is kept, not its text.
    """
    seen: set[bytes] = set()
    for ex in examples:
        instruction = ex.instruction.encode("utf-8", "surrogatepass")
        digest = sha256(b"%d:%b" % (len(instruction), instruction))
        digest.update(ex.program.encode("utf-8", "surrogatepass"))
        key = digest.digest()
        if key not in seen:
            seen.add(key)
            yield ex


@contextmanager
def atomic_output(path: str | os.PathLike) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` only if the block completes.

    It gets the mode a new file would; on any exception it is removed.
    """
    path = os.fspath(path)
    if os.path.isdir(path):  # os.replace would refuse it only after the block
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", prefix=".lintseq-", suffix=".tmp"
        )
    except OSError as exc:
        # name the file the caller asked for, not the temp file beside it
        raise type(exc)(exc.errno, exc.strerror, path) from None
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
    for lineno, raw in jsonl_lines(path):
        try:
            record = EditSequenceRecord.from_json(raw)
        except (CorpusError, ValueError) as exc:
            raise CorpusError(f"{path}:{lineno}: bad record: {exc}") from None
        yield record
