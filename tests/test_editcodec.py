import random

import pytest

from lintseq import editcodec
from lintseq.corpus import EditSequenceRecord
from lintseq.diffkit import DiffError, diff_states, join_lines, parse_diff, split_lines
from lintseq.editcodec import (
    DEFAULT_SEPARATOR,
    ApplyConflict,
    ResolveError,
    apply,
    resolve,
    resolve_prefixes,
    resolve_stream,
    restore_final_newline,
    serialize,
    split_serialized,
)
from lintseq.sampler import backward_sample
from tests.oracles import assert_resolvers_match_reference, diff, reference_fold, state_texts

SEP = DEFAULT_SEPARATOR


def test_serialize_layout():
    one = serialize(["@@ -0,0 +1 @@\n+x = 1"])
    assert one == f"{SEP}\n@@ -0,0 +1 @@\n+x = 1"
    two = serialize(["@@ -0,0 +1 @@\n+a", "@@ -1,0 +2 @@\n+b"])
    assert two == f"{SEP}\n@@ -0,0 +1 @@\n+a\n{SEP}\n@@ -1,0 +2 @@\n+b"


def test_serialize_length_overhead():
    parts = ["@@ -0,0 +1 @@\n+a", "@@ -1,0 +2 @@\n+bb", "@@ -2,0 +3 @@\n+ccc"]
    text = serialize(parts)
    # one separator line per edit plus the joining newlines, nothing else
    assert len(text) == sum(len(p) for p in parts) + 3 * (len(SEP) + 1) + 2


def test_serialize_validation():
    with pytest.raises(ValueError):
        serialize([])
    with pytest.raises(ValueError):
        serialize(["@@ -0,0 +1 @@\n+x"], separator="")
    with pytest.raises(ValueError):
        serialize(["@@ -0,0 +1 @@\n+x"], separator="a\nb")
    # a raw edit carrying the separator as a full line would corrupt the split
    with pytest.raises(ValueError):
        serialize([f"@@ -0,0 +1 @@\n+x\n{SEP}"])


def test_split_round_trips_serialize():
    parts = ["@@ -0,0 +1 @@\n+a", "@@ -1,0 +2 @@\n+b"]
    assert split_serialized(serialize(parts)) == parts


def test_split_keeps_leading_raw_diff():
    assert split_serialized("@@ -0,0 +1 @@\n+x = 1") == ["@@ -0,0 +1 @@\n+x = 1"]
    mixed = f"@@ -0,0 +1 @@\n+a\n{SEP}\n@@ -1,0 +2 @@\n+b"
    assert split_serialized(mixed) == ["@@ -0,0 +1 @@\n+a", "@@ -1,0 +2 @@\n+b"]


def test_split_drops_blank_segments():
    assert split_serialized("") == []
    assert split_serialized(SEP) == []
    assert split_serialized(f"{SEP}\n{SEP}\n@@ -0,0 +1 @@\n+x") == [
        "@@ -0,0 +1 @@\n+x"
    ]


def test_split_ignores_token_inside_lines():
    # the separator only splits when it is a complete line
    body = f"@@ -0,0 +1 @@\n+tag = \"{SEP}\""
    assert split_serialized(f"{SEP}\n{body}") == [body]


def test_program_line_equal_to_token_round_trips():
    program = f'x = "one"\nmarker = "{SEP}"\nprint(marker)\n'
    edits = diff_states(backward_sample(program, rng=random.Random(4)))
    assert resolve(serialize(edits)) == program


def apply_text(text, diff_text):
    """``apply`` on program text: split, apply the parsed diff, join."""
    return join_lines(apply(split_lines(text), parse_diff(diff_text)))


def test_apply_insert_into_empty():
    assert apply_text("", "@@ -0,0 +1 @@\n+x = 1") == "x = 1\n"


def test_apply_insert_at_top():
    assert apply_text("b\n", "@@ -0,0 +1 @@\n+a") == "a\nb\n"


def test_apply_stacks_insertions_at_same_anchor():
    out = apply_text("a\nz\n", "@@ -1,0 +2,2 @@\n+m\n+n")
    assert out == "a\nm\nn\nz\n"


def test_apply_delete_and_replace():
    assert apply_text("a\nb\nc\n", "@@ -2 +1,0 @@\n-b") == "a\nc\n"
    assert apply_text("a\nb\nc\n", "@@ -2 +2 @@\n-b\n+B") == "a\nB\nc\n"


def test_apply_terminates_output():
    assert apply_text("a", "@@ -1,0 +2 @@\n+b") == "a\nb\n"


def test_apply_preserves_trailing_blank_line():
    assert apply_text("", "@@ -0,0 +1 @@\n+") == "\n"
    assert apply_text("a\n", "@@ -1,0 +2 @@\n+") == "a\n\n"


def test_apply_conflicts():
    with pytest.raises(ApplyConflict, match="expected 'X', found 'b'"):
        apply_text("a\nb\n", "@@ -2 +2 @@\n-X\n+Y")
    with pytest.raises(ApplyConflict):
        apply_text("a\n", "@@ -5 +4,0 @@\n-x")  # beyond the end
    with pytest.raises(ApplyConflict):
        # second hunk starts before the first finished
        apply_text("a\nb\nc\n", "@@ -2 +1,0 @@\n-b\n@@ -1 +0,0 @@\n-a")
    # the first hunk fits; the caller's lines stay as they were anyway
    lines = ["a", "b"]
    with pytest.raises(ApplyConflict):
        apply(lines, parse_diff("@@ -1,0 +2 @@\n+m\n@@ -2 +2 @@\n-X\n+Y"))
    assert lines == ["a", "b"]


def test_apply_inverts_diff_random_pairs():
    rng = random.Random(12)
    alphabet = ["a = 1", "b = 2", "c = a", "print(a)", "", "d = 9"]
    for _ in range(300):
        a = [rng.choice(alphabet) for _ in range(rng.randrange(0, 8))]
        b = [rng.choice(alphabet) for _ in range(rng.randrange(0, 8))]
        assert apply(a, diff(join_lines(a), join_lines(b))) == b


def test_apply_runs_once_per_edit(monkeypatch):
    # the benchmark counts editcodec.apply calls as resolved edits
    calls = []
    real = editcodec.apply

    def counted(lines, edit):
        calls.append(edit)
        return real(lines, edit)

    monkeypatch.setattr(editcodec, "apply", counted)
    program = "a = 1\nb = a + 1\nc = b * 2\nprint(a, b, c)\nd = c\nprint(d)\n"
    edits = diff_states(backward_sample(program, rng=random.Random(3)))
    text = serialize(edits)
    assert len(edits) > 1
    for resolver in (resolve_stream, resolve, resolve_prefixes):
        calls.clear()
        resolver(text)
        assert len(calls) == len(edits), resolver.__name__


def test_resolver_matches_reference_on_diff_chains():
    # chains of diffs between random texts carry deletions and replacements;
    # dropping one edit from a chain can make a later edit conflict
    rng = random.Random(21)
    alphabet = ["a = 1", "b = 2", "c = a", "print(a)", "", "d = 9", "    pass"]
    failures = 0
    for _ in range(400):
        texts = [""] + [
            join_lines(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
            for _ in range(rng.randrange(1, 7))
        ]
        edits = [diff(a, b) for a, b in zip(texts, texts[1:])]
        edits = [e for e in edits if e.hunks]
        if len(edits) > 1 and rng.random() < 0.5:
            del edits[rng.randrange(len(edits) - 1)]
        if not edits:
            continue
        text = serialize(edits)
        assert_resolvers_match_reference(text)
        failures += reference_fold(text)[1] is not None
    assert failures > 20


def test_resolve_empty_stream():
    assert resolve("") == ""


def test_resolve_prefixes_match_states():
    program = "a = 1\nb = a + 1\nprint(b)\n"
    seq = backward_sample(program, rng=random.Random(7))
    text = serialize(diff_states(seq))
    prefixes = resolve_prefixes(text)
    assert prefixes == state_texts(seq)[1:]
    assert resolve(text) == program


def test_resolve_error_carries_edit_index():
    text = serialize(["@@ -0,0 +1 @@\n+a", "@@ -9 +8,0 @@\n-zzz"])
    with pytest.raises(ResolveError) as exc:
        resolve(text)
    assert exc.value.edit_index == 1
    assert isinstance(exc.value, DiffError)


def test_resolve_stream_recovers_longest_prefix():
    text = serialize(["@@ -0,0 +1 @@\n+a", "@@ -1,0 +2 @@\n+b", "@@ bogus"])
    out = resolve_stream(text)
    assert not out.ok
    assert out.applied == 2
    assert out.program == "a\nb\n"
    assert out.failure.edit_index == 2
    assert out.failure.kind == "MalformedDecorator"


def test_resolve_stream_clean():
    out = resolve_stream(serialize(["@@ -0,0 +1 @@\n+a"]))
    assert out.ok and out.applied == 1 and out.program == "a\n"
    assert out.failure is None


def test_resolve_stream_never_raises_on_garbage():
    rng = random.Random(5)
    base = serialize(["@@ -0,0 +1 @@\n+a", "@@ -1,0 +2 @@\n+b"])
    chars = list(base)
    for _ in range(200):
        mutated = chars[:]
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(mutated))
            mutated[pos] = rng.choice("@+-x 01\n")
        resolve_stream("".join(mutated))  # must not raise


def test_custom_separator():
    parts = ["@@ -0,0 +1 @@\n+a", "@@ -1,0 +2 @@\n+b"]
    text = serialize(parts, separator="<edit>")
    assert resolve(text, separator="<edit>") == "a\nb\n"


def record_for(program, seed=2):
    seq = backward_sample(program, rng=random.Random(seed))
    return EditSequenceRecord(
        source_id="t",
        sample_index=0,
        instruction="write it",
        program=program,
        edits=tuple(e.rendered for e in diff_states(seq)),
        training_text=serialize(diff_states(seq)),
        num_edits=len(seq.states) - 1,
        seed_path=(0, 0, 0),
    )


def test_resolve_record_restores_exact_bytes():
    for program in ("a = 1\nprint(a)\n", "a = 1\nprint(a)"):
        record = record_for(program)
        assert restore_final_newline(resolve(record.training_text), record.program) == program


def test_split_lines_join_lines_inverse_on_states():
    lines = ["a", "", "b"]
    assert split_lines(join_lines(lines)) == lines
