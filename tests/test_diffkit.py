import random

import pytest

from lintseq.diffkit import (
    BodyMismatch,
    EditDiff,
    Hunk,
    MalformedDecorator,
    TruncatedHunk,
    diff_states,
    join_lines,
    parse_diff,
    split_lines,
)
from lintseq.sampler import StateSequence
from tests.oracles import diff, per_line_render, reference_render


def test_split_lines_cases():
    assert split_lines("") == []
    assert split_lines("a") == ["a"]
    assert split_lines("a\n") == ["a"]
    assert split_lines("a\nb") == ["a", "b"]
    assert split_lines("a\n\nb\n") == ["a", "", "b"]
    assert split_lines("\n") == [""]


def test_join_lines_round_trip():
    cases = [[], ["a"], ["a", "b"], ["a", ""], ["", ""], ["a", "", "b"]]
    for lines in cases:
        assert split_lines(join_lines(lines)) == lines
    assert join_lines([]) == ""
    assert join_lines(["a", ""]) == "a\n\n"


def test_diff_insert_into_empty():
    d = diff("", "x = 1")
    assert d.rendered == "@@ -0,0 +1 @@\n+x = 1"
    assert len(d.hunks) == 1
    assert all(h.old_len == 0 for h in d.hunks)


def test_diff_identity_is_empty():
    for text in ("", "a", "a\nb\nc\n"):
        assert diff(text, text).hunks == ()


def test_diff_delete_middle_line():
    d = diff("a\nb\nc", "a\nc")
    assert d.rendered == "@@ -2 +1,0 @@\n-b"
    h = d.hunks[0]
    assert (h.old_start, h.old_len, h.new_start, h.new_len) == (2, 1, 1, 0)
    assert h.deletions == ("b",)


def test_diff_replace_line():
    d = diff("a\nb\nc", "a\nB\nc")
    assert d.rendered == "@@ -2 +2 @@\n-b\n+B"


def test_hunk_validation():
    with pytest.raises(ValueError):
        Hunk(old_start=1, old_len=1, new_start=1, new_len=0, deletions=())
    with pytest.raises(ValueError):
        Hunk(old_start=0, old_len=0, new_start=0, new_len=0)
    with pytest.raises(ValueError):
        # a non-empty old range cannot start at 0
        Hunk(old_start=0, old_len=1, new_start=1, new_len=0, deletions=("x",))


def test_render_omits_len_when_one():
    h = Hunk(old_start=3, old_len=1, new_start=3, new_len=1,
             deletions=("a",), insertions=("b",))
    assert h.decorator == "@@ -3 +3 @@"
    h2 = Hunk(old_start=3, old_len=2, new_start=3, new_len=1,
              deletions=("a", "b"), insertions=("c",))
    assert h2.decorator == "@@ -3,2 +3 @@"


def test_parse_round_trip():
    rng = random.Random(5)
    alphabet = ["pass", "x = 1", "", "  y = x", "print(x)", "# note"]
    for _ in range(200):
        a = join_lines(rng.choices(alphabet, k=rng.randrange(0, 8)))
        b = join_lines(rng.choices(alphabet, k=rng.randrange(0, 8)))
        d = diff(a, b)
        assert parse_diff(d.rendered) == d


def test_parse_tolerates_omitted_len():
    d = parse_diff("@@ -1 +1 @@\n-x\n+y")
    h = d.hunks[0]
    assert (h.old_start, h.old_len, h.new_start, h.new_len) == (1, 1, 1, 1)
    assert h.deletions == ("x",)
    assert h.insertions == ("y",)


def test_parse_tolerates_trailing_annotation():
    d = parse_diff("@@ -0,0 +1 @@ def main()\n+x = 1")
    assert d.hunks[0].insertions == ("x = 1",)


def test_parse_empty_is_no_hunks():
    assert parse_diff("") == EditDiff(())
    assert parse_diff("\n\n") == EditDiff(())


def test_parse_malformed_decorator():
    with pytest.raises(MalformedDecorator):
        parse_diff("not a diff")
    with pytest.raises(MalformedDecorator):
        parse_diff("@@ -1, +2 @@\n-x")
    with pytest.raises(MalformedDecorator):
        # zero-content hunk
        parse_diff("@@ -1,0 +1,0 @@\n")
    with pytest.raises(MalformedDecorator):
        # non-empty range starting at 0
        parse_diff("@@ -0,1 +1 @@\n-x\n+y")


def test_parse_decorator_number_too_long_is_malformed():
    # int() converts at most 4,300 digits by default and raises ValueError past that
    for head in ("@@ -0,0 +" + "1" * 5000 + " @@", "@@ -" + "9" * 5000 + ",0 +1 @@"):
        with pytest.raises(MalformedDecorator, match="line number too long"):
            parse_diff(head + "\n+x")


def test_parse_decorator_takes_ascii_digits_only():
    # U+0661 is ARABIC-INDIC DIGIT ONE, which int() reads as 1
    for head in ("@@ -0,0 +\u0661 @@", "@@ -\u0660,0 +1 @@", "@@ -0,0 +1,\uff11 @@"):
        with pytest.raises(MalformedDecorator, match="not a hunk decorator"):
            parse_diff(head + "\n+x")


def test_parse_takes_a_line_list():
    text = "@@ -1,2 +1 @@\n-a\n-b\n+c\n@@ -4,0 +3,2 @@\n+d\n+e"
    assert parse_diff(text.split("\n")) == parse_diff(text)
    assert parse_diff([]) == EditDiff(())


def test_hunk_is_a_tuple_of_its_fields():
    h = parse_diff("@@ -2 +2 @@\n-b\n+B").hunks[0]
    assert h == (2, 1, 2, 1, ("b",), ("B",))
    assert h == Hunk(2, 1, 2, 1, ("b",), ("B",))
    assert (h.old_start, h.old_len, h.new_start, h.new_len) == (2, 1, 2, 1)
    assert repr(h) == "Hunk(old_start=2, old_len=1, new_start=2, new_len=1, deletions=('b',), insertions=('B',))"


def test_parse_truncated_hunk():
    with pytest.raises(TruncatedHunk):
        parse_diff("@@ -1 +1 @@")


def test_parse_body_mismatch():
    with pytest.raises(BodyMismatch):
        parse_diff("@@ -1,2 +1 @@\n-x")
    with pytest.raises(BodyMismatch):
        parse_diff("@@ -1 +1 @@\n+y\n-x")  # insertions before deletions
    # the first bad line of a body is named, before a body that runs short
    with pytest.raises(BodyMismatch, match="expected a '\\+' body line, got 'x'"):
        parse_diff("@@ -0,0 +1,3 @@\n+a\nx")
    with pytest.raises(BodyMismatch, match="expected a '-' body line, got '\\+a'"):
        parse_diff("@@ -1,2 +1 @@\n-a\n+a")
    with pytest.raises(BodyMismatch, match="'\\+b': body shorter than declared"):
        parse_diff("@@ -0,0 +1,3 @@\n+a\n+b")


def test_diff_states_single_line():
    seq = StateSequence(("x = 1",), ((0,),))
    diffs = diff_states(seq)
    assert len(diffs) == 1
    assert diffs[0].rendered == "@@ -0,0 +1 @@\n+x = 1"


def test_diff_states_prepend():
    # states over ["a=1", "b=2"]: keep (1,), then (0, 1)
    seq = StateSequence(("a=1", "b=2"), ((1,), (0,)))
    first, second = diff_states(seq)
    assert first.rendered == "@@ -0,0 +1 @@\n+b=2"
    assert second.rendered == "@@ -0,0 +1 @@\n+a=1"


def test_diff_states_interleaved_runs():
    lines = ("a", "b", "c", "d", "e")
    seq = StateSequence(lines, ((1, 3), (0, 2, 4)))
    _, d = diff_states(seq)
    assert [h.render() for h in d.hunks] == [
        "@@ -0,0 +1 @@\n+a",
        "@@ -1,0 +3 @@\n+c",
        "@@ -2,0 +5 @@\n+e",
    ]


def test_diff_states_duplicate_texts_use_provenance():
    # both lines are "x = x + 1"; provenance decides which one is new
    lines = ("x = x + 1", "x = x + 1")
    seq = StateSequence(lines, ((1,), (0,)))
    _, d = diff_states(seq)
    assert d.rendered == "@@ -0,0 +1 @@\n+x = x + 1"
    # the general matcher cannot know which copy is new, but the resolved
    # text must agree
    assert all(h.old_len == 0 for h in d.hunks)


def test_diff_states_trailing_blank_line():
    # a state ending in a blank line must survive the text round trip
    seq = StateSequence(("x = 1", ""), ((1,), (0,)))
    first, second = diff_states(seq)
    assert first.rendered == "@@ -0,0 +1 @@\n+"
    assert second.rendered == "@@ -0,0 +1 @@\n+x = 1"


def test_diff_states_agrees_with_general_diff():
    # holds whenever line texts are unique, where LCS alignment is forced
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(1, 10)
        lines = tuple(f"line{i} = {i}" for i in range(n))
        kept: list[int] = sorted(rng.sample(range(n), rng.randrange(0, n)))
        rest = tuple(i for i in range(n) if i not in kept)
        seq = StateSequence(lines, tuple(step for step in (tuple(kept), rest) if step))
        from_states = diff_states(seq)[-1]
        from_texts = diff(join_lines(lines[i] for i in kept), join_lines(lines))
        assert from_states == from_texts


def test_reference_render_matches_diff():
    rng = random.Random(13)
    alphabet = [f"w{i}" for i in range(6)]
    for _ in range(300):
        a = join_lines(rng.choices(alphabet, k=rng.randrange(0, 10)))
        b = join_lines(rng.choices(alphabet, k=rng.randrange(0, 10)))
        assert diff(a, b).rendered == reference_render(a, b)


# blanks, repeats, and lines that look like body prefixes or decorators
TRICKY_LINES = ("", "", "x = 1", "x = 1", "+", "-", "+y", "-z", "++", "@@", "@@ -1 +1 @@", "  pass")


def random_sequence(rng: random.Random) -> StateSequence:
    n = rng.randrange(1, 14)
    lines = tuple(rng.choice(TRICKY_LINES) for _ in range(n))
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
    edits = (tuple(sorted(order[a:b])) for a, b in zip([0, *cuts], [*cuts, n]))
    return StateSequence(lines, tuple(edits))


def test_diff_states_renders_as_the_per_line_formula():
    rng = random.Random(21)
    edits = 0
    for _ in range(400):
        for d in diff_states(random_sequence(rng)):
            assert d.rendered == per_line_render(d.hunks)
            assert parse_diff(d.rendered) == d
            edits += 1
    assert edits > 1000


def test_render_of_parsed_two_sided_hunks_is_the_per_line_formula():
    rng = random.Random(22)
    for _ in range(400):
        old_len, new_len = rng.randrange(1, 5), rng.randrange(1, 5)
        hunk = Hunk(
            rng.randrange(1, 50), old_len, rng.randrange(1, 50), new_len,
            tuple(rng.choices(TRICKY_LINES, k=old_len)), tuple(rng.choices(TRICKY_LINES, k=new_len)),
        )
        (parsed,) = parse_diff(per_line_render([hunk])).hunks
        assert parsed == hunk
        assert parsed.render() == per_line_render([parsed])
