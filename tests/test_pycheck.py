import random
from pathlib import Path

import lintseq
import lintseq.pycheck
from lintseq.pycheck import Analysis, check_lines, flow
from lintseq.diffkit import split_lines
from lintseq.sampler import backward_sample
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
    assert flow(analysis, [0, 1, 2]) == []
    # drop the import: both users now reference an unknown name
    out = flow(analysis, [1, 2])
    assert [c for _, c, _ in out] == ["undefined-name"]
    # findings are numbered against the candidate, not the source
    assert [ln for ln, _, _ in out] == [1]
    # drop the middle line: print target vanishes
    out2 = flow(analysis, [0, 2])
    assert [(ln, c) for ln, c, _ in out2] == [(2, "undefined-name")]


def test_flow_candidate_numbering():
    lines = split_lines("a = 1\nb = a + 1\nc = b + 1\n")
    analysis = Analysis(lines)
    # keep only the last line: its finding is at candidate line 1
    out = flow(analysis, [2])
    assert [(ln, c) for ln, c, _ in out] == [(1, "undefined-name")]


def test_del_header_cascade_shape():
    # removing a def header leaves the body orphaned one line at a time
    lines = split_lines("def f(p):\n    t = p + 1\n    return t\nprint(f(2))\n")
    analysis = Analysis(lines)
    out = flow(analysis, [1, 2, 3])
    assert (1, "unexpected-indent") in [(ln, c) for ln, c, _ in out]
    assert (3, "undefined-name") in [(ln, c) for ln, c, _ in out]


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


def test_walrus_in_if_header_binds():
    assert findings('if (n := len("ab")) > 1:\n    print(n)\n') == []


def test_shared_analysis_keeps_continuation_modes_apart():
    # line 2 continues a def header in one subset and an expression in the other
    analysis = Analysis(["def f(a,\n", "y = (\n", "      b)\n"])
    assert flow(analysis, [0, 2]) == []
    out = flow(analysis, [1, 2])
    assert out == [(2, "undefined-name", "undefined name 'b'")]
    assert out == check_lines(["y = (\n", "      b)\n"])


def test_shared_analysis_matches_fresh_check_on_own_sources():
    rng = random.Random(3)
    for path in sorted(Path(lintseq.__file__).parent.glob("*.py")):
        lines = split_lines(path.read_text(encoding="utf-8"))
        analysis = Analysis(lines)
        for _ in range(12):
            keep = rng.random()
            kept = [i for i in range(len(lines)) if rng.random() < keep]
            assert flow(analysis, kept) == check_lines([lines[i] for i in kept]), (path, kept)


def _cold(analysis, kept):
    return flow(Analysis(analysis.lines), kept)


def test_incremental_flow_matches_cold_on_backward_sample_cascades(monkeypatch):
    # every call a cascade makes on the shared Analysis equals a walk of
    # every kept line by a fresh Analysis, which has no last run and no
    # base; the fresh ones share one scan cache per program, since scans
    # are context-free (re-scanning the whole program per call is slow)
    calls = []
    real_flow = lintseq.pycheck.flow
    pair = [None, None]  # the shared Analysis and the scan cache of its references

    def checked(analysis, kept):
        got = real_flow(analysis, kept)
        if pair[0] is not analysis:
            pair[:] = [analysis, Analysis(analysis.lines)._scans]
        ref = Analysis(analysis.lines)
        ref._scans = pair[1]
        assert got == real_flow(ref, kept), kept
        calls.append(len(kept))
        return got

    monkeypatch.setattr(lintseq.pycheck, "flow", checked)
    sources = sorted(Path(lintseq.__file__).parent.glob("*.py"))
    programs = [path.read_text(encoding="utf-8") for path in sources]
    gen = random.Random(5)
    for style in ("mixed", "coupled"):
        programs += [make_program(gen, 20, 60, style)[1] for _ in range(3)]
    for seed, program in enumerate(programs):
        backward_sample(program, rng=random.Random(seed))
        if seed % 3 == 0:
            # later samples of a program start from the base; the third one
            # sees whatever the second left in it
            for sample in (1, 2):
                backward_sample(program, rng=random.Random(1000 * sample + seed))
    assert len(calls) > 1000


def test_incremental_flow_adversarial_call_orders():
    lines = split_lines((Path(lintseq.__file__).parent / "lint.py").read_text(encoding="utf-8"))
    other = Analysis(split_lines("import os\nx = os.sep\ndef f(a):\n    return a + x\nf(y)\n"))
    n = len(lines)
    rng = random.Random(11)
    shared = Analysis(lines)
    subset = sorted(rng.sample(range(n), n // 3))
    superset = sorted(set(subset) | set(rng.sample(range(n), n // 3)))
    unrelated = sorted(rng.sample(range(n), n // 2))

    def without(*drop):
        return [k for k in range(n) if k not in drop]

    mid = n // 2
    orders = [
        range(n), subset, superset, unrelated, unrelated, [], range(n), [], subset,
        range(n // 2, n), range(n // 2), list(range(0, n, 2)), list(range(1, n, 2)), superset,
        # hops between the base, the whole program, and runs far from it
        range(n), [], range(n - 1), without(mid), without(mid, mid + 1),
        without(*range(mid - 3, mid + 4)), without(3), unrelated, without(n - 1), [],
        without(0), without(0, 1), range(n), without(mid),
    ]
    for i, kept in enumerate(orders):
        assert flow(shared, kept) == _cold(shared, kept), i
        # a second Analysis in between must not disturb the first one's last run
        other_kept = range(5) if i % 2 else [0, 2, 4]
        assert flow(other, other_kept) == _cold(other, other_kept), i


def test_first_check_resumes_from_base(monkeypatch):
    # a sample's first check follows the last sample's empty run; the
    # whole-program run kept as the base is one line away from it
    lines = split_lines((Path(lintseq.__file__).parent / "pycheck.py").read_text(encoding="utf-8"))
    n = len(lines)
    assert n >= 300
    a = Analysis(lines)
    whole = flow(a, range(n))
    assert whole == check_lines(lines)
    assert flow(a, []) == []
    scans = []
    real_scan = Analysis.scan

    def counted(self, idx, entry):
        scans.append(idx)
        return real_scan(self, idx, entry)

    monkeypatch.setattr(Analysis, "scan", counted)
    got = flow(a, range(n - 1))
    assert len(scans) <= 1
    monkeypatch.undo()
    assert got == _cold(a, range(n - 1))
    # the base is left as it was: back at the whole program, nothing changed
    assert flow(a, []) == []
    assert flow(a, range(n)) == whole


# headers, a star import, a global, a docstring, brackets across lines and a
# dedent that lands on no indentation level: deleting any one or two lines
# changes the walk state that the lines after them are entered with
_STATEFUL = '''\
from os.path import *
import sys
X = 1


def outer(a,
          b=X):
    global G
    G = a
    s = """doc
    still doc
    """
    t = (a +
         b)
    if t:
            u = t
        v = join(u, sys.argv)
    return s, v


class K(object):
    y = G

    def m(self):
        return self.y + X


print(outer(1), K().m(), sep, G, y)
'''


def test_incremental_flow_after_edits_that_change_walk_state():
    lines = split_lines(_STATEFUL)
    n = len(lines)
    shared = Analysis(lines)
    assert flow(shared, range(n)) == check_lines(lines)
    for i in range(n):
        for j in range(i, n):
            kept = [k for k in range(n) if k != i and k != j]
            assert flow(shared, kept) == _cold(shared, kept), (i, j)
        # back to a superset of every subset walked above
        assert flow(shared, range(i, n)) == _cold(shared, range(i, n)), i


def test_flow_rejects_unordered_kept():
    analysis = Analysis(["x = 1\n", "y = x\n", "print(y)\n"])
    for kept in ([1, 0], [0, 2, 2], [0, 2, 1]):
        try:
            flow(analysis, kept)
        except ValueError:
            pass
        else:
            raise AssertionError(kept)
        assert flow(analysis, [0, 1, 2]) == []
