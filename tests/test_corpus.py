import json
import os
import stat

import pytest

from lintseq.corpus import (
    RECORD_KEYS,
    CorpusError,
    EditSequenceRecord,
    SourceExample,
    deduplicate,
    load_corpus,
    normalize_newlines,
    read_records,
    write_records,
)


def test_normalize_newlines():
    assert normalize_newlines("a\r\nb\rc\nd") == "a\nb\nc\nd"
    assert normalize_newlines("") == ""


def test_build_normalizes_and_counts():
    ex = SourceExample.build("x", "do it", "a = 1\r\nb = 2")
    assert ex.program == "a = 1\nb = 2"
    assert ex.line_count == 2
    term = SourceExample.build("y", "", "a = 1\n")
    assert term.program == "a = 1\n"
    assert term.line_count == 1


def test_build_empty_program():
    ex = SourceExample.build("z", "", "")
    assert ex.line_count == 0


def corpus_file(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load(path):
    """load_corpus's stream, split into (examples, skipped lines)."""
    items = list(load_corpus(path))
    examples = [x for x in items if isinstance(x, SourceExample)]
    skipped = [x for x in items if not isinstance(x, SourceExample)]
    return examples, skipped


def test_load_corpus_basic(tmp_path):
    path = corpus_file(
        tmp_path,
        [
            json.dumps({"id": "a", "instruction": "one", "program": "x = 1\n"}),
            json.dumps({"instruction": "two", "program": "y = 2\n"}),
            "",
        ],
    )
    examples, skipped = load(path)
    assert skipped == []
    assert [ex.id for ex in examples] == ["a", "000001"]
    assert examples[1].instruction == "two"


# nested past any recursion limit: json.loads raises RecursionError on it
DEEP = "[" * 100_000 + "]" * 100_000
# valid JSON whose strings no UTF-8 output can hold: a lone surrogate in a
# value, and one in a key
LONE = json.dumps({"program": "y = '\ud800'\n"})
LONE_KEY = json.dumps({"program": "z = 1\n", "\udfff": 1})


def test_load_corpus_skips_with_diagnostics(tmp_path):
    path = corpus_file(
        tmp_path,
        [
            "{not json",
            DEEP,
            json.dumps(["a", "list"]),
            json.dumps({"instruction": "no program"}),
            json.dumps({"program": 7}),
            json.dumps({"program": "ok = 1\n", "instruction": 3}),
            json.dumps({"program": "ok = 1\n", "id": 9}),
            LONE,
            LONE_KEY,
            json.dumps({"program": "kept = 1\n"}),
            # an escaped surrogate pair is one character
            json.dumps({"program": "pair = '\U0001f600'\n"}),
        ],
    )
    examples, skipped = load(path)
    assert [ex.program for ex in examples] == ["kept = 1\n", "pair = '\U0001f600'\n"]
    linenos = [line for line, _ in skipped]
    assert linenos == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    reasons = [reason for _, reason in skipped]
    assert any("invalid JSON" in r for r in reasons)
    assert reasons[1] == "invalid JSON: nesting too deep"
    assert reasons[7:] == ["invalid JSON: lone surrogate"] * 2
    assert any("not a JSON object" in r for r in reasons)
    assert sum("'program'" in r for r in reasons) == 2
    assert len(skipped) == 9


def test_load_corpus_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"program": "\xff\xfe"}\n')
    with pytest.raises(CorpusError):
        load(path)


def test_deduplicate_keeps_first():
    a = SourceExample.build("a", "same", "x = 1\n")
    b = SourceExample.build("b", "same", "x = 1\n")
    c = SourceExample.build("c", "other", "x = 1\n")
    kept = list(deduplicate([a, b, c]))
    assert [ex.id for ex in kept] == ["a", "c"]
    assert 3 - len(kept) == 1


def test_deduplicate_separates_instruction_from_program():
    a = SourceExample.build("a", "same", "x = 1\n")
    b = SourceExample.build("b", "sam", "ex = 1\n")
    assert [ex.id for ex in deduplicate([a, b])] == ["a", "b"]


def sample_record(**overrides):
    fields = dict(
        source_id="src-1",
        sample_index=2,
        instruction="write a thing",
        program="x = 1\n",
        edits=("@@ -0,0 +1 @@\n+x = 1",),
        training_text="<|diff|>\n@@ -0,0 +1 @@\n+x = 1",
        seed_path=(0, 4, 2),
    )
    fields.update(overrides)
    return EditSequenceRecord(**fields)


def test_record_round_trip_and_key_order():
    rec = sample_record(instruction="café ☃")
    line = rec.to_json()
    assert "\n" not in line
    # non-ASCII stays readable and key order is fixed
    assert "café" in line
    assert tuple(json.loads(line).keys()) == RECORD_KEYS
    back = EditSequenceRecord.from_json(line)
    assert back == rec


def test_record_validates_num_edits():
    assert sample_record().num_edits == 1
    obj = json.loads(sample_record().to_json())
    obj["num_edits"] = 3
    with pytest.raises(ValueError, match="num_edits disagrees with the edits list"):
        EditSequenceRecord.from_json(json.dumps(obj))
    # the count is checked last, so a line with another fault names that one
    obj["seed_path"] = [1, 2]
    with pytest.raises(CorpusError, match="seed_path"):
        EditSequenceRecord.from_json(json.dumps(obj))


def test_record_from_json_rejects_missing_keys():
    obj = json.loads(sample_record().to_json())
    del obj["training_text"]
    with pytest.raises(CorpusError):
        EditSequenceRecord.from_json(json.dumps(obj))


def test_record_from_json_rejects_bad_seed_path():
    obj = json.loads(sample_record().to_json())
    obj["seed_path"] = [1, 2]
    with pytest.raises(CorpusError):
        EditSequenceRecord.from_json(json.dumps(obj))


@pytest.mark.parametrize(
    "key, value",
    [
        ("source_id", 1),
        ("instruction", None),
        ("program", 5),
        ("training_text", None),
        ("sample_index", "2"),
        ("sample_index", False),
        ("num_edits", 1.0),
        ("edits", "@@ -0,0 +1 @@\n+x = 1"),
        ("edits", [None]),
        ("seed_path", [0, 4, True]),
        ("seed_path", [0, 4, 2.0]),
    ],
)
def test_record_from_json_rejects_wrong_types(key, value):
    obj = json.loads(sample_record().to_json())
    obj[key] = value
    with pytest.raises(CorpusError, match=key):
        EditSequenceRecord.from_json(json.dumps(obj))


def test_write_then_read_round_trip(tmp_path):
    records = [sample_record(sample_index=i) for i in range(3)]
    out = tmp_path / "records.jsonl"
    assert write_records(records, out) == 3
    assert list(read_records(out)) == records


def test_write_records_is_atomic_on_failure(tmp_path):
    out = tmp_path / "records.jsonl"
    out.write_text("keep me\n")

    def boom():
        yield sample_record()
        raise RuntimeError("mid-stream failure")

    with pytest.raises(RuntimeError):
        write_records(boom(), out)
    assert out.read_text() == "keep me\n"
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


def test_write_records_gives_new_file_mode(tmp_path):
    out = tmp_path / "records.jsonl"
    write_records([sample_record()], out)
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_read_records_reports_position(tmp_path):
    out = tmp_path / "records.jsonl"
    out.write_text(sample_record().to_json() + "\n{broken\n")
    with pytest.raises(CorpusError) as exc:
        list(read_records(out))
    assert ":2:" in str(exc.value)
    out.write_text(sample_record().to_json() + "\n" + DEEP + "\n")
    with pytest.raises(CorpusError, match=":2: bad record: nesting too deep"):
        list(read_records(out))
    lone = json.dumps({**json.loads(sample_record().to_json()), "instruction": "\ud800"})
    out.write_text(sample_record().to_json() + "\n" + lone + "\n")
    with pytest.raises(CorpusError, match=":2: bad record: lone surrogate"):
        list(read_records(out))
