import random

import pytest

from lintseq.corpus import EditSequenceRecord
from lintseq.diffkit import DiffError, diff_states, join_lines, split_lines
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
from tests.oracles import diff, state_texts

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


def test_apply_insert_into_empty():
    assert apply("", "@@ -0,0 +1 @@\n+x = 1") == "x = 1\n"


def test_apply_insert_at_top():
    assert apply("b\n", "@@ -0,0 +1 @@\n+a") == "a\nb\n"


def test_apply_stacks_insertions_at_same_anchor():
    out = apply("a\nz\n", "@@ -1,0 +2,2 @@\n+m\n+n")
    assert out == "a\nm\nn\nz\n"


def test_apply_delete_and_replace():
    assert apply("a\nb\nc\n", "@@ -2 +1,0 @@\n-b") == "a\nc\n"
    assert apply("a\nb\nc\n", "@@ -2 +2 @@\n-b\n+B") == "a\nB\nc\n"


def test_apply_terminates_output():
    assert apply("a", "@@ -1,0 +2 @@\n+b") == "a\nb\n"


def test_apply_preserves_trailing_blank_line():
    assert apply("", "@@ -0,0 +1 @@\n+") == "\n"
    assert apply("a\n", "@@ -1,0 +2 @@\n+") == "a\n\n"


def test_apply_conflicts():
    with pytest.raises(ApplyConflict, match="expected 'X', found 'b'"):
        apply("a\nb\n", "@@ -2 +2 @@\n-X\n+Y")
    with pytest.raises(ApplyConflict):
        apply("a\n", "@@ -5 +4,0 @@\n-x")  # beyond the end
    with pytest.raises(ApplyConflict):
        # second hunk starts before the first finished
        apply("a\nb\nc\n", "@@ -2 +1,0 @@\n-b\n@@ -1 +0,0 @@\n-a")


def test_apply_inverts_diff_random_pairs():
    rng = random.Random(12)
    alphabet = ["a = 1", "b = 2", "c = a", "print(a)", "", "d = 9"]
    for _ in range(300):
        a = [rng.choice(alphabet) for _ in range(rng.randrange(0, 8))]
        b = [rng.choice(alphabet) for _ in range(rng.randrange(0, 8))]
        a_text, b_text = join_lines(a), join_lines(b)
        assert apply(a_text, diff(a_text, b_text)) == b_text


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
