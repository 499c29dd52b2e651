import random
import re

import pytest

from lintseq import editcodec
from lintseq.corpus import EditSequenceRecord
from lintseq.diffkit import DiffError, EditDiff, Hunk, diff_states, join_lines, parse_diff, split_lines
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
)
from lintseq.sampler import backward_sample
from tests.oracles import (
    assert_resolvers_match_reference,
    diff,
    reference_apply,
    reference_fold,
    reference_split_serialized,
    state_texts,
)

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


@pytest.mark.parametrize("separator", [SEP, "### next edit"])
def test_serialize_rejects_exactly_an_edit_line_equal_to_the_separator(separator):
    # near misses: padded, behind a body prefix, or inside a longer line
    pieces = [
        separator, f" {separator}", f"{separator} ", "+" + separator,
        f"x = '{separator}'", "", "+x", "@@ -0,0 +1 @@",
    ]
    rng = random.Random(17)
    outcomes = set()
    for _ in range(600):
        edits = [
            "\n".join(rng.choices(pieces, k=rng.randrange(1, 5)))
            for _ in range(rng.randrange(1, 4))
        ]
        collides = any(separator in e.split("\n") for e in edits)
        outcomes.add(collides)
        if collides:
            with pytest.raises(ValueError, match="collides"):
                serialize(edits, separator)
        else:
            assert serialize(edits, separator) == "\n".join(f"{separator}\n{e}" for e in edits)
    assert outcomes == {True, False}


def split_serialized(text, separator=SEP):
    """Each part the resolvers read, joined back into text."""
    return ["\n".join(part) for part in editcodec._parts(text, separator)]


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


def test_split_matches_reference_up_to_leading_blank_lines():
    # the frozen regex split keeps blank lines at the start of a part;
    # parse_diff skipped them, and the line split drops them with the rest
    rng = random.Random(8)
    pieces = [SEP, "", "", "@@ -0,0 +1 @@", "+a", f"+{SEP}", f"{SEP} ", "x", "<edit>"]
    for _ in range(2000):
        text = "\n".join(rng.choice(pieces) for _ in range(rng.randrange(0, 9)))
        text += rng.choice(["", "\n", "\n\n"])
        for sep in (SEP, "<edit>"):
            expected = [p.lstrip("\n") for p in reference_split_serialized(text, sep)]
            assert split_serialized(text, sep) == expected, (text, sep)


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


def _edit_against(rng, lines, tag, conflict=None):
    """A random edit of ``lines`` in 1-4 hunks: valid, or with hunk k conflicting.

    ``conflict`` is None, "overlap", "range" or "mismatch".  Inserted lines
    carry ``tag``, so every edit changes the text.  Returns the edit and k
    (0 for a valid edit).
    """
    low = 2 if conflict == "overlap" else 1  # an overlap needs a hunk before it
    n = rng.randrange(low, min(5, len(lines)))
    # anchors from 1 on, so every hunk ends past line 0
    anchors = sorted(rng.sample(range(1, len(lines)), n))
    hunks = []
    shift = 0
    for i, anchor in enumerate(anchors):
        room = (anchors[i + 1] if i + 1 < n else len(lines)) - anchor
        old_len = rng.randrange(0, min(room, 3) + 1)
        new_len = rng.randrange(0 if old_len else 1, 3)
        hunks.append(Hunk(
            anchor + 1 if old_len else anchor, old_len,
            anchor + shift + 1 if new_len else anchor + shift, new_len,
            tuple(lines[anchor:anchor + old_len]),
            tuple(f"{tag}{i}.{j}" for j in range(new_len)),
        ))
        shift += new_len - old_len
    if conflict is None:
        return EditDiff(tuple(hunks)), 0
    k = rng.randrange(low, n + 1)
    anchor = anchors[k - 1]
    if conflict == "overlap":  # inserts before the end of hunk k - 1
        p = hunks[k - 2]
        bad = Hunk(p.old_start + p.old_len - 2 if p.old_len else p.old_start - 1, 0, 1, 1, (), ("x",))
    elif conflict == "range":  # deletes past the last line
        bad = Hunk(len(lines) + rng.randrange(1, 3), 2, 1, 0, ("x", "y"), ())
    else:  # deletes a line the text does not hold
        bad = Hunk(anchor + 1, 1, 1, 0, ("not " + lines[anchor],), ())
    hunks[k - 1] = bad
    return EditDiff(tuple(hunks)), k


def test_apply_in_place_leaves_lines_on_conflict():
    # hunk k of n conflicts; the hunks before it fit, and apply checks every
    # hunk before it splices any, so the caller's list never changes
    rng = random.Random(31)
    messages = {"overlap": "overlaps or precedes", "range": "falls outside", "mismatch": "deletion mismatch"}
    seen = set()
    for trial in range(600):
        base = [f"line{i}" for i in range(rng.randrange(6, 14))]
        conflict = ("overlap", "range", "mismatch")[trial % 3]
        edit, k = _edit_against(rng, base, "t", conflict)
        seen.add((conflict, k, len(edit.hunks)))
        lines = list(base)
        with pytest.raises(ApplyConflict, match=rf"^hunk {k}\b.*{messages[conflict]}"):
            apply(lines, edit)
        assert lines == base
        # a valid edit is spliced into the very list it was given
        valid, _ = _edit_against(rng, base, "v")
        expected = split_lines(reference_apply(join_lines(base), valid))
        assert apply(lines, valid) is lines
        assert lines == expected
    # every kind hit a later hunk of a several-hunk edit
    assert {c for c, k, n in seen if 1 < k <= n} == {"overlap", "range", "mismatch"}


def test_resolvers_on_in_place_states():
    rng = random.Random(32)
    for trial in range(200):
        base = [f"line{i}" for i in range(rng.randrange(6, 14))]
        create = EditDiff((Hunk(0, 0, 1, len(base), (), tuple(base)),))
        first, _ = _edit_against(rng, base, "a")
        state1 = reference_apply(join_lines(base), first)
        second, _ = _edit_against(rng, split_lines(state1), "b")
        state2 = reference_apply(state1, second)
        # each prefix is its own text, not the final list joined three times
        prefixes = resolve_prefixes(serialize([create, first, second]))
        assert prefixes == [join_lines(base), state1, state2]
        assert len(set(prefixes)) == 3
        conflict = ("overlap", "range", "mismatch")[trial % 3]
        bad, k = _edit_against(rng, split_lines(state1), "c", conflict)
        outcome = resolve_stream(serialize([create, first, bad, second]))
        assert outcome.program == state1
        assert outcome.applied == 2
        assert outcome.failure.edit_index == 2
        assert type(outcome.failure.cause) is ApplyConflict
        assert re.match(rf"hunk {k}\b", str(outcome.failure.cause))


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
    assert type(out.failure.cause).__name__ == "MalformedDecorator"
    # the kept error holds no frame of the call; its cause keeps its own
    assert out.failure.__traceback__ is None
    assert out.failure.__cause__ is out.failure.cause
    assert out.failure.cause.__traceback__ is not None


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
        seed_path=(0, 0, 0),
    )


def test_resolve_record_restores_exact_bytes():
    for program in ("a = 1\nprint(a)\n", "a = 1\nprint(a)"):
        record = record_for(program)
        assert restore_final_newline(resolve(record.training_text), record.program) == program


def test_split_lines_join_lines_inverse_on_states():
    lines = ["a", "", "b"]
    assert split_lines(join_lines(lines)) == lines
