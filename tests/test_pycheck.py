import hashlib
import os
import random
from pathlib import Path

import pytest

import lintseq
from lintseq import pycheck
from lintseq.pycheck import Analysis, LineScan, check_lines, flow, scan_line
from lintseq.diffkit import split_lines
from lintseq.lint import BuiltinLinter
from lintseq.sampler import backward_sample
from tests.oracles import flow_checked, recording_scan, reference_scan_line
from tests.progen import make_program


def findings(text):
    return check_lines(split_lines(text))


def codes(text):
    return [(line, code) for line, code, _ in findings(text)]


def test_clean_programs():
    clean = [
        "x = 1\nprint(x)\n",
        "import math\nprint(math.pi)\n",
        "from math import floor\nprint(floor(2.5))\n",
        "def f(a, b=2):\n    return a + b\nprint(f(1))\n",
        "xs = [1, 2]\nys = [x * 2 for x in xs]\nprint(ys)\n",
        "a, b = 1, 2\nprint(a + b)\n",
        "total = 0\nfor i in range(3):\n    total += i\nprint(total)\n",
        "with open(__file__) as fh:\n    data = fh.read()\nprint(len(data))\n",
        "try:\n    v = 1\nexcept ValueError as exc:\n    v = len(str(exc))\nprint(v)\n",
        'name = "w"\nprint(f"hi {name}")\n',
        "",
        "\n",
        "# only a comment\n",
    ]
    for prog in clean:
        assert findings(prog) == [], prog


def test_undefined_name():
    assert codes("print(y)\n") == [(1, "undefined-name")]
    assert "y" in findings("print(y)\n")[0][2]


def test_use_before_assignment_on_same_line():
    # x = x + 1 with no earlier x: the RHS use comes first
    assert codes("x = x + 1\n") == [(1, "undefined-name")]
    assert codes("x = 0\nx = x + 1\n") == []


def test_function_body_sees_later_globals():
    # bodies run after the module loads, so forward references are fine
    prog = "def f():\n    return later\nlater = 3\nprint(f())\n"
    assert findings(prog) == []


def test_params_are_local():
    prog = "def f(p):\n    return p\nprint(p)\n"
    assert codes(prog) == [(3, "undefined-name")]


def test_locals_do_not_leak():
    prog = "def f():\n    t = 1\n    return t\nprint(t)\n"
    assert codes(prog) == [(4, "undefined-name")]


def test_orphaned_function_body():
    # body without its def header: indent error, then the call site breaks
    prog = "    return 1\nprint(f())\n"
    out = codes(prog)
    assert (1, "unexpected-indent") in out
    assert (2, "undefined-name") in out


def test_missing_block_body():
    assert codes("def f():\nprint(1)\n") == [(1, "missing-block-body")]
    assert codes("if True:\n") == [(1, "missing-block-body")]
    msg = findings("for i in range(3):\n")[0][2]
    assert "'for'" in msg


def test_unterminated_string():
    assert codes('x = """doc\n') == [(1, "unterminated-string")]
    # deleting a docstring closer flags the opener line
    prog = '"""top\nstill text\n'
    assert codes(prog) == [(1, "unterminated-string")]
    # a line entered in the string that closes it and opens another keeps
    # the first opener
    assert codes('x = """a\nb""" + """c\nd\n') == [(1, "unterminated-string")]
    # blank and comment lines inside the string do not move the opener
    assert codes('y = 1\ns = """\n\n# c\n') == [(2, "unterminated-string")]
    assert codes('a = (\nb = """\n') == [(1, "unclosed-bracket"), (2, "unterminated-string")]
    # a cascade: the full check, then without line 3, then without line 1
    lines = split_lines('s = """x\ny\n"""\nt = 1\nu = """\n')
    a = Analysis(lines)
    kept = list(range(len(lines)))
    assert flow_checked(a, kept) == [(5, "unterminated-string", "unterminated triple-quoted string")]
    # without the closer, line 5's quotes close the string line 1 opened
    assert flow_checked(a, kept, [2]) == []
    # without the first opener, line 2 is code and line 5 opens a string again
    assert flow_checked(a, kept, [0]) == [
        (2, "undefined-name", "undefined name 'y'"),
        (5, "unterminated-string", "unterminated triple-quoted string"),
    ]


def test_docstring_interior_is_opaque():
    prog = '"""doc\nnot code ???\n"""\nx = 1\nprint(x)\n'
    assert findings(prog) == []


def test_unclosed_bracket():
    assert codes("xs = [1, 2\n") == [(1, "unclosed-bracket")]
    # continuation lines inside brackets are fine
    assert findings("xs = [\n    1,\n    2,\n]\nprint(xs)\n") == []


def test_unmatched_close_and_mismatch():
    assert (1, "unmatched-close") in codes("x = 1)\n")
    assert (1, "mismatched-bracket") in codes("xs = [1)\n")


def test_inconsistent_dedent():
    prog = "if True:\n        x = 1\n    y = 2\nprint(1)\n"
    assert (3, "inconsistent-dedent") in codes(prog)


def test_unexpected_indent():
    assert codes("x = 1\n    y = 2\n") == [(2, "unexpected-indent")]


def test_backslash_continuation():
    assert findings("x = 1 + \\\n    2\nprint(x)\n") == []


def test_fstring_uses_names():
    assert codes('print(f"{missing}")\n') == [(1, "undefined-name")]
    assert findings('w = 2\nprint(f"{w:>{w}}")\n') == []


def test_aug_assign_requires_existing_name():
    assert codes("acc += 1\n") == [(1, "undefined-name")]
    assert findings("acc = 0\nacc += 1\n") == []


def test_global_statement_binds():
    prog = "def f():\n    global g\n    g = 1\ng = 0\nprint(g)\n"
    assert findings(prog) == []


def test_class_attributes_do_not_leak():
    prog = "class C:\n    size = 3\nprint(size)\n"
    assert codes(prog) == [(3, "undefined-name")]


def test_import_alias_binds_alias():
    assert findings("import json as j\nprint(j.dumps([]))\n") == []
    assert codes("import json as j\nprint(json.dumps([]))\n") == [(2, "undefined-name")]


def test_flow_runs_on_subsets():
    lines = split_lines("import math\nr = math.floor(2.5)\nprint(r)\n")
    analysis = Analysis(lines)
    assert flow(analysis) == []
    # drop the import: both users now reference an unknown name
    out = flow(analysis, [0])
    assert [c for _, c, _ in out] == ["undefined-name"]
    # findings are numbered by source line, not by candidate position
    assert [ln for ln, _, _ in out] == [2]
    # drop the middle line: print target vanishes
    out2 = flow(Analysis(lines), [1])
    assert [(ln, c) for ln, c, _ in out2] == [(3, "undefined-name")]


def test_flow_numbers_findings_by_source_line():
    lines = split_lines("a = 1\nb = a + 1\nc = b + 1\n")
    # keep only the last line: candidate line 1 is source line 3
    analysis = Analysis(lines)
    out = flow(analysis, [0, 1])
    assert analysis.kept == [2]
    assert [(ln, c) for ln, c, _ in out] == [(3, "undefined-name")]


def test_del_header_cascade_shape():
    # removing a def header leaves the body orphaned one line at a time
    lines = split_lines("def f(p):\n    t = p + 1\n    return t\nprint(f(2))\n")
    out = flow(Analysis(lines), [0])
    assert (2, "unexpected-indent") in [(ln, c) for ln, c, _ in out]
    assert (4, "undefined-name") in [(ln, c) for ln, c, _ in out]


def test_multiline_def_header_defaults_and_annotations():
    prog = "def f(a,\n      b=c,\n      *args: T) -> R:\n    return a + b\nprint(f(1))\n"
    assert findings(prog) == [
        (2, "undefined-name", "undefined name 'c'"),
        (3, "undefined-name", "undefined name 'R'"),
        (3, "undefined-name", "undefined name 'T'"),
    ]


def test_parenthesized_from_import():
    prog = "from os import (\n    path,\n    sep as s,\n)\nprint(path, s, sep)\n"
    assert findings(prog) == [(5, "undefined-name", "undefined name 'sep'")]


def test_class_bases_keywords_and_inline_body():
    assert findings("class C(Base, metaclass=M): x = y\n") == [
        (1, "undefined-name", "undefined name 'Base'"),
        (1, "undefined-name", "undefined name 'M'"),
        (1, "undefined-name", "undefined name 'y'"),
    ]


def test_one_line_def_with_return_annotation():
    assert findings("def g(p) -> int: return p + q\n") == [
        (1, "undefined-name", "undefined name 'q'")
    ]


def test_annotated_assignment():
    assert findings("x: List[int] = y\n") == [
        (1, "undefined-name", "undefined name 'List'"),
        (1, "undefined-name", "undefined name 'y'"),
    ]


def test_escaped_quotes_close_strings():
    assert findings("s = 'it\\'s'\n") == []
    assert findings('t = """a\\"""b"""\n') == []
    assert findings("u = 'open\n") == [
        (1, "unterminated-string", "unterminated string literal")
    ]


def _scan_view(scan: LineScan) -> dict:
    view = {slot: getattr(scan, slot) for slot in LineScan.__slots__ if slot != "_cont"}
    view["cont"] = [scan.cont_facts(mode) for mode in (None, "def", "import")]
    return view


def test_scan_line_matches_the_per_character_reference():
    # the first 600 lines of a few stdlib modules, then seeded random lines
    # over the characters the scanner jumps between and the ones around
    # them, triple quotes and f-string openers drawn as one piece; word
    # characters past ASCII letters, the form feed and prefixes with or
    # without a word character before them reach the string-prefix rule's
    # edges; each line is scanned in code and inside either triple quote
    texts = []
    for name in ("tokenize.py", "textwrap.py", "dataclasses.py", "typing.py", "enum.py"):
        path = Path(os.__file__).parent / name
        texts += split_lines(path.read_text(encoding="utf-8"))[:600]
    rng = random.Random(17)
    pieces = [*"ab f\"'#()[]{}\\ rbx=:,.\t", '"""', "'''", 'f"', "f'"]
    pieces += [*"é中1_\x0c", "rb'", 'Br"', "_r'", "1f'"]
    for _ in range(3000):
        line = "".join(rng.choices(pieces, k=rng.randint(0, 20)))
        texts.append(line + "\n" if rng.random() < 0.8 else line)
    for text in texts:
        for entry in ("", '"""', "'''"):
            assert _scan_view(scan_line(text, entry)) == _scan_view(
                reference_scan_line(text, entry)
            ), (text, entry)


# ASCII pieces that steer the name-fact parsers: headers, binding words,
# the operators they split on, brackets, strings and f-string fields
_FACT_PIECES = (
    "def", "class", "lambda", "import", "from", "as", "async", "global", "match", "case",
    "for", "in", "a", "b", "x", "key", "self", "1",
    ".", ",", "=", ":", "->", "*", "**", "+=", ":=", "(", ")", "[", "]", "{", "}",
    "'s'", '"t"', 'f"{a}"', "f'{b!r:{w}}'", "f\"{a['k']:>{w}}\"", 'f"{x.y(z)}"',
    "#", "\\", '"""', "'''", "\t",
)


def test_name_facts_of_every_line_are_pinned():
    # every LineScan slot and every continuation mode, at each entry state,
    # of seeded progen lines and seeded random lines; the corpus is ASCII
    # and drawn with the seeded generator only, so the digest is the same on
    # every supported interpreter, and a refactor of the parsers must keep it
    rng = random.Random(25)
    texts = []
    for style in ("coupled", "mixed"):
        for _ in range(20):
            texts += split_lines(make_program(rng, style=style)[1])
    for _ in range(4000):
        line = " " * rng.choice((0, 0, 4, 6))
        for piece in rng.choices(_FACT_PIECES, k=rng.randint(0, 14)):
            line += piece + rng.choice(("", " ", " "))
        texts.append(line + "\n" if rng.random() < 0.8 else line)
    digest = hashlib.sha256()
    for text in texts:
        for entry in ("", '"""', "'''"):
            digest.update(repr(_scan_view(scan_line(text, entry))).encode())
    assert digest.hexdigest() == (
        "d25ad023e6d040e2381093611b1fe7852ddf81abf73e49ee1f3fd8b87d7fd0de"
    )


@pytest.mark.parametrize(
    "text, fresh, conts",
    [
        # the base list never closes, so the colon search starts past the end
        (
            "class A(B,",
            ([("B", 3)], [("A", 1)], None, "class", ()),
            [((("A", 1), ("B", 3)), ()), ((("B", 3),), (("A", 1),)),
             ((), (("A", 1), ("B", 3)))],
        ),
        # a default's bracket stays open, so the header is pending
        (
            "def f(a, b=(1,",
            ([], [("f", 1)], "def", "function", ("a", "b")),
            [((("f", 1), ("a", 3)), ()), ((("a", 3),), (("f", 1),)),
             ((), (("f", 1), ("a", 3), ("b", 5)))],
        ),
        # as a def continuation, the bracket that reopens past the header's
        # close resumes the parameter list: str and x are parameters
        (
            "      b) -> Dict[str, x]:",
            ([("b", 0), ("Dict", 3), ("str", 5), ("x", 7)], [], None, None, ()),
            [((("b", 0), ("Dict", 3), ("str", 5), ("x", 7)), ()),
             ((("Dict", 3),), (("b", 0), ("str", 5), ("x", 7))),
             ((), (("b", 0), ("Dict", 3), ("str", 5), ("x", 7)))],
        ),
        (
            "x: int = y = z",
            ([("z", 6), ("int", 2)], [("x", 10000), ("y", 10004)], None, None, ()),
            [((("x", 0), ("z", 6)), ()), ((("int", 2), ("y", 4), ("z", 6)), (("x", 0),)),
             ((), (("x", 0), ("int", 2), ("y", 4), ("z", 6)))],
        ),
        (
            "a[i] += 1",
            ([("a", 0), ("i", 2)], [], None, None, ()),
            [((("a", 0), ("i", 2)), ()), ((("i", 2),), (("a", 0),)),
             ((), (("a", 0), ("i", 2)))],
        ),
    ],
)
def test_bracket_depth_edge_cases(text, fresh, conts):
    scan = scan_line(text + "\n", "")
    assert (scan.uses, scan.defs, scan.pending, scan.scope_kind, scan.scope_params) == fresh
    assert [scan.cont_facts(mode) for mode in (None, "def", "import")] == conts


def test_walrus_in_if_header_binds():
    assert findings('if (n := len("ab")) > 1:\n    print(n)\n') == []


def test_shared_analysis_keeps_continuation_modes_apart():
    # line 2 continues a def header in one subset and an expression in the other
    analysis = Analysis(["def f(a,\n", "y = (\n", "      b)\n"])
    assert flow(analysis) == check_lines(analysis.lines)
    assert flow(analysis, [1]) == []
    analysis.restart()
    out = flow(analysis, [0])
    assert out == [(3, "undefined-name", "undefined name 'b'")]
    assert check_lines(["y = (\n", "      b)\n"]) == [(2, "undefined-name", "undefined name 'b'")]


def test_shared_analysis_matches_fresh_check_on_own_sources():
    # deletion chains of every rate on each source, restarted now and then
    rng = random.Random(3)
    for path in sorted(Path(lintseq.__file__).parent.glob("*.py")):
        analysis = Analysis(split_lines(path.read_text(encoding="utf-8")))
        base = list(range(len(analysis.lines)))
        kept = base[:]
        flow_checked(analysis, kept)
        for _ in range(12):
            if rng.random() < 0.3:
                analysis.restart()
                kept = base[:]
            rate = rng.random()
            flow_checked(analysis, kept, [i for i in kept if rng.random() < rate])


def test_incremental_flow_matches_cold_on_backward_sample_cascades(monkeypatch):
    # every check a cascade makes on the engine's shared Analysis equals a
    # cold check of the candidate, mapped to source lines; setup hands out
    # the Analysis's kept list keeping every line, so the test's own copy
    # of the kept lines starts there
    calls = []
    mirrors = {}
    real_setup = BuiltinLinter.setup

    def setup(self, program):
        out = real_setup(self, program)
        assert out[1] is self._analysis.kept
        mirrors[self._analysis] = list(range(len(out[0])))
        return out

    def check_subset(self, deleted):
        analysis = self._analysis
        kept = mirrors.setdefault(analysis, list(range(len(analysis.lines))))
        calls.append(len(kept))
        return flow_checked(analysis, kept, deleted)

    monkeypatch.setattr(BuiltinLinter, "setup", setup)
    monkeypatch.setattr(BuiltinLinter, "check_subset", check_subset)
    sources = sorted(Path(lintseq.__file__).parent.glob("*.py"))
    programs = [path.read_text(encoding="utf-8") for path in sources]
    gen = random.Random(5)
    for style in ("mixed", "coupled", "rich"):
        programs += [make_program(gen, 20, 60, style)[1] for _ in range(3)]
    for seed, program in enumerate(programs):
        backward_sample(program, rng=random.Random(seed))
        if seed % 3 == 0:
            # later samples of a program restart from the base; the third
            # one sees whatever the second left in it
            for sample in (1, 2):
                backward_sample(program, rng=random.Random(1000 * sample + seed))
    assert len(calls) > 1000


def test_incremental_flow_adversarial_call_orders():
    lines = split_lines((Path(lintseq.__file__).parent / "lint.py").read_text(encoding="utf-8"))
    rng = random.Random(11)
    # (Analysis, the base's kept lines, the kept lines now) of two sources;
    # the second one's first call deletes a line, so its base lacks that line
    shared = (Analysis(lines), list(range(len(lines))), list(range(len(lines))))
    other_lines = split_lines("import os\nx = os.sep\ndef f(a):\n    return a + x\nf(y)\n")
    other = (Analysis(other_lines), [0, 2, 3, 4], list(range(5)))
    flow_checked(shared[0], shared[2])
    flow_checked(other[0], other[2], [1])
    steps = {
        "none": lambda kept: [],
        "middle": lambda kept: kept[len(kept) // 2 : len(kept) // 2 + 1],
        "first": lambda kept: kept[:1],
        "last": lambda kept: kept[-1:],
        "run": lambda kept: kept[len(kept) // 3 : len(kept) // 2],
        "two apart": lambda kept: kept[1:2] + kept[-2:-1],
        "third": lambda kept: rng.sample(kept, len(kept) // 3),
        "every other": lambda kept: kept[::2],
        "all": lambda kept: kept,
    }
    scripted = [
        "middle", "middle", "none", "restart", "first", "last", "two apart", "run",
        "restart", "restart", "all", "none", "restart", "third", "third", "every other",
        "middle", "restart", "every other", "every other", "all", "restart", "last", "all",
    ]
    names = [*steps, "restart"]
    order = scripted + [rng.choice(names) for _ in range(60)]
    for i, step in enumerate(order):
        # each step on one Analysis is followed by a call on the other, which
        # must not disturb the first one's last run
        for analysis, base, kept in (shared, other) if i % 2 else (other, shared):
            if step == "restart":
                analysis.restart()
                kept[:] = base
            flow_checked(analysis, kept, [] if step == "restart" else steps[step](kept))


def test_first_check_resumes_from_base(monkeypatch):
    # a sample's first check follows the restart after the last sample
    # deleted every line; the restart goes back to the whole-program run,
    # which is one line away from it
    lines = split_lines((Path(lintseq.__file__).parent / "pycheck.py").read_text(encoding="utf-8"))
    n = len(lines)
    assert n >= 300
    a = Analysis(lines)
    kept = list(range(n))
    whole = flow_checked(a, kept)
    assert flow_checked(a, kept, kept[:]) == []
    a.restart()
    scans = []  # flow looks every walked line's scan up, found or not
    monkeypatch.setattr(pycheck, "_scan", recording_scan(scans))
    got = flow(a, [n - 1])
    assert len(scans) <= 1
    assert got == check_lines(lines[:-1])
    # the base is left as it was: after a restart, nothing changed
    a.restart()
    assert flow(a) == whole


# headers, a star import, a global, a docstring, brackets across lines and a
# dedent that lands on no indentation level: deleting any one or two lines
# changes the walk state that the lines after them are entered with.  Some
# lines repeat a def, a use or a finding within the line itself: a name
# declared global twice, a comprehension that rebinds its target, one name
# twice in an f-string, and a mismatched or unmatched bracket twice
_STATEFUL = '''\
from os.path import *
import sys
X = 1


def outer(a,
          b=X):
    global G, G
    G = a
    s = """doc
    still doc
    """
    t = (a +
         b)
    if t:
            u = t
        v = join(u, sys.argv)
    w = [a for a in v for a in a]
    return s, v, f"{w}{w}"


class K(object):
    y = G

    def m(self):
        return self.y + X


print(outer(1), K().m(), sep, G, y)
(] (]
))
'''


def test_incremental_flow_after_edits_that_change_walk_state():
    lines = split_lines(_STATEFUL)
    n = len(lines)
    shared = Analysis(lines)
    assert flow(shared) == check_lines(lines)
    for i in range(n):
        for j in range(i, n):
            shared.restart()
            flow_checked(shared, list(range(n)), {i, j})
        # then delete the lines before i, and the rest one at a time from the end
        shared.restart()
        kept = list(range(n))
        flow_checked(shared, kept, range(i))
        while kept:
            flow_checked(shared, kept, kept[-1:])


def test_walk_states_compare_equal_across_analyses_of_one_program():
    # a scope is a plain value, so two Analyses of one source reach equal
    # walk states, def and class scopes included, before and after deletions
    lines = split_lines(_STATEFUL)
    first, second = Analysis(lines), Analysis(lines)
    assert flow(first) == flow(second)
    assert first._states == second._states
    assert flow(first, [5]) == flow(second, [5])
    assert first._states == second._states


def test_flow_on_programs_of_random_source_lines():
    # lines drawn at random from the package's own sources, so quotes,
    # brackets and headers arrive orphaned; 1-3 random lines are deleted per
    # call down to the empty program, then the run restarts from its base
    pool = [
        line
        for path in sorted(Path(lintseq.__file__).parent.glob("*.py"))
        for line in split_lines(path.read_text(encoding="utf-8"))
    ]
    rng = random.Random(7)
    calls = 0
    for _ in range(80):
        analysis = Analysis(rng.choices(pool, k=rng.randint(5, 60)))
        base = list(range(len(analysis.lines)))
        kept = base[:]
        flow_checked(analysis, kept)
        for _ in range(3):
            while kept:
                flow_checked(analysis, kept, rng.sample(kept, min(len(kept), rng.randint(1, 3))))
                calls += 1
            analysis.restart()
            kept = base[:]
    assert calls > 2000


def test_flow_on_analyses_that_share_their_scans(monkeypatch):
    # Analyses that share the scan cache, called in turn down to the empty
    # program, each agree with a cold check: the package's source lines, and
    # _STATEFUL's as code, then inside a triple-quoted string, then as code
    # again once the string's opening line is deleted.  The cache starts
    # empty and is unbounded, and every key looked up in it is recorded.
    # A line walked inside a string without its quote is not looked up, so
    # the texts walked inside a string are read off the runs' stored states
    pool = [
        line
        for path in sorted(Path(lintseq.__file__).parent.glob("*.py"))
        for line in split_lines(path.read_text(encoding="utf-8"))
    ]
    stateful = split_lines(_STATEFUL)
    quoted = stateful + ['text = """\n'] + stateful + ['"""\n', "print(text)\n"]
    rng = random.Random(13)
    scans = []
    monkeypatch.setattr(pycheck, "_scan", recording_scan(scans))
    analyses = [Analysis(quoted)]
    analyses += [Analysis(rng.choices(pool, k=rng.randint(5, 60))) for _ in range(12)]
    kepts = [list(range(len(a.lines))) for a in analyses]
    in_string = set()

    def checked(analysis, kept, deleted=()):
        flow_checked(analysis, kept, deleted)
        in_string.update(analysis.lines[i] for i in kept if analysis._states[i][0])

    for analysis, kept in zip(analyses, kepts):
        checked(analysis, kept)
    checked(analyses[0], kepts[0], [len(stateful)])
    calls = 0
    while any(kepts):
        for analysis, kept in zip(analyses, kepts):
            if kept:
                checked(analysis, kept, rng.sample(kept, min(len(kept), rng.randint(1, 3))))
                calls += 1
    assert calls > 200
    # the same texts were walked inside a string and scanned as code
    both = in_string & {text for text, entry in scans if not entry}
    assert len(both) >= 10, both


def test_a_line_inside_a_string_without_its_quote_is_not_looked_up(monkeypatch):
    # flow passes a line entered inside a triple-quoted string that does not
    # hold that quote on as it is, without a scan: sampling docstring-heavy
    # programs, whose runs walk many such lines, looks up none of them
    programs = [(Path(lintseq.__file__).parent / "pycheck.py").read_text(encoding="utf-8")]
    gen = random.Random(7)
    programs += [make_program(gen, 20, 60, "rich")[1] for _ in range(3)]
    keys = []
    monkeypatch.setattr(pycheck, "_scan", recording_scan(keys))
    interiors = 0
    for seed, program in enumerate(programs):
        analysis = Analysis(split_lines(program))
        flow(analysis)
        interiors += sum(
            1 for raw, st in zip(analysis.lines, analysis._states) if st[0] and st[0] not in raw
        )
        for sample in range(2):
            backward_sample(program, rng=random.Random(10 * seed + sample))
    assert interiors >= 100 and len(keys) > 3000
    assert [(raw, entry) for raw, entry in keys if entry and entry not in raw] == []


def test_scan_line_passes_a_string_interior_on_as_it_is():
    # the rule that lets flow skip those scans: a line entered inside a
    # triple-quoted string that does not hold that quote has no content and
    # exits in the state it was entered in.  The first 600 lines of a few
    # stdlib modules, then seeded random lines of quotes, backslashes,
    # escaped quotes and code, each entered inside either triple quote
    texts = []
    for name in ("tokenize.py", "textwrap.py", "dataclasses.py", "typing.py", "enum.py"):
        path = Path(os.__file__).parent / name
        texts += split_lines(path.read_text(encoding="utf-8"))[:600]
    rng = random.Random(29)
    pieces = [*"ab #()\\\t", '"', "'", '""', "''", '\\"', "\\'", '"""', "'''", '\\"""', "\\'''"]
    for _ in range(3000):
        line = "".join(rng.choices(pieces, k=rng.randint(0, 12)))
        texts.append(line + "\n" if rng.random() < 0.8 else line)
    interiors = 0
    for text in texts:
        for entry in ('"""', "'''"):
            if entry not in text:
                scan = scan_line(text, entry)
                assert not scan.has_content and scan.exit_state == entry, (text, entry)
                interiors += 1
    assert interiors > 5000


def test_flow_inverts_blank_comment_and_code_lines_to_the_end_and_back():
    # deleting the module docstring's opener turns the rest into strings
    # and code the other way round, blank and comment lines included, up
    # to the end; deleting the new opener turns them back
    lines = split_lines(
        '"""\nModule doc.\n"""\nimport os\n\n# a comment\n\n\n'
        'def f(a):\n    """Doc of f."""\n    # inside\n    return os.sep + a\n\n\nx = f("b")\n'
    )
    analysis = Analysis(lines)
    kept = list(range(len(lines)))
    assert flow_checked(analysis, kept) == []
    assert analysis._states[-1][0] == ""
    flow_checked(analysis, kept, [0])
    assert [analysis._states[i][0] for i in (3, 5, 10, 14)] == ['"""', '"""', '"""', '"""']
    flow_checked(analysis, kept, [2])
    assert [analysis._states[i][0] for i in (3, 5, 10, 14)] == ["", "", "", ""]


def test_flow_keeps_equal_events_while_a_missing_body_moves():
    # deleting line 2 moves the 'if' header's missing-block-body from its
    # events to line 3's; deleting line 5 changes the state line 6 is
    # entered in (the last character of its logical line), but not its events
    lines = split_lines(
        "import os\nif os.sep:\nx = 1\ny = x\nz = [\n    os.sep,\n] + [os.name]\nprint(y, z)\n"
    )
    analysis = Analysis(lines)
    kept = list(range(len(lines)))
    flow_checked(analysis, kept)
    missing = (1, "missing-block-body", "expected an indented block after 'if'")
    assert missing in analysis._events[2][0]
    state, events = analysis._states[6], analysis._events[6]
    assert events[2]
    flow_checked(analysis, kept, [2, 5])
    assert missing in analysis._events[3][0]
    assert analysis._states[6] != state
    assert analysis._events[6] is events


def test_flow_rejects_deleting_a_line_not_kept():
    analysis = Analysis(["x = 1\n", "y = x\n", "print(y)\n"])
    kept = [0, 1, 2]
    assert flow_checked(analysis, kept, [1]) == [(3, "undefined-name", "undefined name 'y'")]
    # deleted before, twice in one call, out of range
    for deleted in ([1], [0, 0], [2, 0, 2], [3], [-1], [0, 3]):
        with pytest.raises(ValueError):
            flow(analysis, deleted)
        # the rejected call left the run as it was
        assert flow_checked(analysis, kept) == [(3, "undefined-name", "undefined name 'y'")]
    assert flow_checked(analysis, kept, [2]) == []


def test_star_import_resolves_every_name_of_its_scope():
    # at module scope every name resolves, before the import too
    assert findings("print(q)\nfrom m import *\nprint(r)\ndef f():\n    return s\n") == []
    # at class scope only the class body's own uses, not a method's
    prog = "class K:\n    from m import *\n    a = q\n    def m(self):\n        return r\nprint(s)\n"
    assert findings(prog) == [
        (5, "undefined-name", "undefined name 'r'"),
        (6, "undefined-name", "undefined name 's'"),
    ]
    # at function scope its own and nested functions' uses
    prog = "def f():\n    from m import *\n    def g():\n        return q\n    return g, r\nprint(s)\n"
    assert findings(prog) == [(6, "undefined-name", "undefined name 's'")]


def test_star_import_with_alias_still_binds_every_name():
    assert findings("from k import * as z\nprint(q, z)\n") == []
    assert findings("from k import a as b, *\nprint(q, a, b)\n") == []


@pytest.mark.parametrize(
    "prog, lines_of_q_and_r",
    [
        ("from a import *\nx = q\nfrom b import *\ny = r\n", (2, 4)),
        (
            "def f():\n    from a import *\n    x = q\n    from b import *\n    return r\nprint(f)\n",
            (3, 5),
        ),
    ],
)
def test_deleting_star_imports_one_at_a_time(prog, lines_of_q_and_r):
    lines = split_lines(prog)
    stars = [i for i, line in enumerate(lines) if "import *" in line]
    analysis = Analysis(lines)
    kept = list(range(len(lines)))
    assert flow_checked(analysis, kept) == []
    # the first star import goes, and the second still binds every name
    assert flow_checked(analysis, kept, stars[:1]) == []
    q, r = lines_of_q_and_r
    assert flow_checked(analysis, kept, stars[1:]) == [
        (q, "undefined-name", "undefined name 'q'"),
        (r, "undefined-name", "undefined name 'r'"),
    ]


def test_multiline_def_header_binds_parameters_in_its_own_scope():
    prog = "def f(a,\n      b,\n      c=b):\n    return a + b + c\nprint(a, b, c)\n"
    assert findings(prog) == [
        (3, "undefined-name", "undefined name 'b'"),
        (5, "undefined-name", "undefined name 'a'"),
        (5, "undefined-name", "undefined name 'b'"),
        (5, "undefined-name", "undefined name 'c'"),
    ]


def test_dedent_of_several_levels_at_once():
    prog = (
        "def f(x):\n"
        "    class C:\n"
        "        def g(self):\n"
        "            if x:\n"
        "                z = w\n"
        "    w = 1\n"
        "    return C, g, z\n"
        "k = w\n"
        "print(g, C)\n"
    )
    assert findings(prog) == [
        (7, "undefined-name", "undefined name 'g'"),
        (7, "undefined-name", "undefined name 'z'"),
        (8, "undefined-name", "undefined name 'w'"),
        (9, "undefined-name", "undefined name 'C'"),
        (9, "undefined-name", "undefined name 'g'"),
    ]
    # a dedent between levels lands in the scope of the level it passed to
    assert findings("def f():\n    if 1:\n        a = 1\n  b = a\nprint(b)\n") == [
        (4, "inconsistent-dedent", "dedent does not match any outer indentation level"),
        (4, "undefined-name", "undefined name 'a'"),
    ]


# Findings of branches no other test reaches, pinned as they are, quirks
# included, so that a change to one of these paths shows up here.


def test_tab_indentation_rounds_up_to_a_multiple_of_eight():
    assert findings("if True:\n\tx = 1\n        y = 2\nprint(x, y)\n") == []
    assert findings("if True:\n  \tx = 1\n\ty = x\nprint(y)\n") == []
    assert codes("if True:\n\tx = 1\n    y = 2\n") == [(3, "inconsistent-dedent")]


def test_fstring_doubled_braces_and_not_equal():
    # {{b}} and }}{{ are literal braces, not expressions
    assert findings('a = 1\nprint(f"{{b}} {a} }}{{ {{c}}")\n') == []
    # != inside an expression is a comparison, not a conversion
    assert findings('a = 1\nprint(f"{a != b}")\n') == [(2, "undefined-name", "undefined name 'b'")]
    assert findings('a = 1\nprint(f"{a!r} {a != a}")\n') == []


def test_lambda_parameters():
    assert findings("def f():\n    return lambda a, *b: (a, b, c)\n") == [
        (2, "undefined-name", "undefined name 'c'")
    ]
    assert findings("if (lambda v: v)(1):\n    pass\n") == []
    # every name up to the lambda's colon is a parameter, the default z
    # too, and a parameter stays one for the rest of the statement
    assert findings("print((lambda x, y=z: x + y + w)(1), x)\n") == [
        (1, "undefined-name", "undefined name 'w'")
    ]


def test_import_of_several_modules():
    # each module binds its first name, or its alias
    assert findings("import a, b as c, d.e\nprint(a, b, c, d, e)\n") == [
        (2, "undefined-name", "undefined name 'b'"),
        (2, "undefined-name", "undefined name 'e'"),
    ]


def test_def_and_class_without_a_name():
    for header in ("def (x):", "class :", "class (A):"):
        assert findings(f"{header}\n    pass\n") == [], header
        word = header.split()[0]
        assert findings(header + "\n") == [
            (1, "missing-block-body", f"expected an indented block after '{word}'")
        ]
    # without its colon a bare keyword opens no block
    assert codes("def\n    pass\n") == [(2, "unexpected-indent")]
    assert codes("class\n    pass\n") == [(2, "unexpected-indent")]


def test_async_def_header():
    assert findings("async def f():\n") == [
        (1, "missing-block-body", "expected an indented block after 'async def'")
    ]
    assert findings("async def f(x):\n    return x + y\n") == [
        (2, "undefined-name", "undefined name 'y'")
    ]


def test_match_and_case_headers_are_opaque():
    # the case pattern binds nothing, and the subject's names are not read
    assert findings("v = 1\nmatch v + w:\n    case [a, b]:\n        print(a, b, k)\n") == [
        (4, "undefined-name", "undefined name 'a'"),
        (4, "undefined-name", "undefined name 'b'"),
        (4, "undefined-name", "undefined name 'k'"),
    ]
    assert codes("v = 1\nmatch v:\n") == [(2, "missing-block-body")]


def test_multiline_def_header_return_annotation():
    # a bracket that reopens past the header's close resumes the parameter
    # walk, so x binds as a parameter; on one line it is a use
    assert findings("def f(a,\n      b) -> Dict[str, x]:\n    return x\n") == [
        (2, "undefined-name", "undefined name 'Dict'")
    ]
    assert findings("def f(a, b) -> Dict[str, x]:\n    return x\n") == [
        (1, "undefined-name", "undefined name 'Dict'"),
        (1, "undefined-name", "undefined name 'x'"),
        (2, "undefined-name", "undefined name 'x'"),
    ]
    # a closing bracket after the header's close, here of a default's bracket
    assert findings("def f(a, b=(\n        1)) -> x:\n    return a + b\n") == [
        (2, "undefined-name", "undefined name 'x'")
    ]
