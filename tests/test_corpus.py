import json

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


def test_load_corpus_basic(tmp_path):
    path = corpus_file(
        tmp_path,
        [
            json.dumps({"id": "a", "instruction": "one", "program": "x = 1\n"}),
            json.dumps({"instruction": "two", "program": "y = 2\n"}),
            "",
        ],
    )
    result = load_corpus(path)
    assert result.skipped == []
    assert [ex.id for ex in result.examples] == ["a", "000001"]
    assert result.examples[1].instruction == "two"


def test_load_corpus_skips_with_diagnostics(tmp_path):
    path = corpus_file(
        tmp_path,
        [
            "{not json",
            json.dumps(["a", "list"]),
            json.dumps({"instruction": "no program"}),
            json.dumps({"program": 7}),
            json.dumps({"program": "ok = 1\n", "instruction": 3}),
            json.dumps({"program": "ok = 1\n", "id": 9}),
            json.dumps({"program": "kept = 1\n"}),
        ],
    )
    result = load_corpus(path)
    assert len(result.examples) == 1
    assert result.examples[0].program == "kept = 1\n"
    linenos = [line for line, _ in result.skipped]
    assert linenos == [1, 2, 3, 4, 5, 6]
    reasons = [reason for _, reason in result.skipped]
    assert any("invalid JSON" in r for r in reasons)
    assert any("not a JSON object" in r for r in reasons)
    assert sum("'program'" in r for r in reasons) == 2
    assert result.skipped_count == 6


def test_load_corpus_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"program": "\xff\xfe"}\n')
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_deduplicate_keeps_first():
    a = SourceExample.build("a", "same", "x = 1\n")
    b = SourceExample.build("b", "same", "x = 1\n")
    c = SourceExample.build("c", "other", "x = 1\n")
    kept, dropped = deduplicate([a, b, c])
    assert [ex.id for ex in kept] == ["a", "c"]
    assert dropped == 1


def sample_record(**overrides):
    fields = dict(
        source_id="src-1",
        sample_index=2,
        instruction="write a thing",
        program="x = 1\n",
        edits=("@@ -0,0 +1 @@\n+x = 1",),
        training_text="<|diff|>\n@@ -0,0 +1 @@\n+x = 1",
        num_edits=1,
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
    with pytest.raises(ValueError):
        sample_record(num_edits=3)


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


def test_read_records_reports_position(tmp_path):
    out = tmp_path / "records.jsonl"
    out.write_text(sample_record().to_json() + "\n{broken\n")
    with pytest.raises(CorpusError) as exc:
        list(read_records(out))
    assert ":2:" in str(exc.value)
