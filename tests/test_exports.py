import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import lintseq
from lintseq import parse_diff

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in lintseq.__all__ if not hasattr(lintseq, name)]
    assert missing == []


def _referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_has_a_non_test_caller():
    # a public name must be reached by the package itself, the benchmark or
    # the README's library snippet, not only by tests
    sources = [p for p in (ROOT / "src" / "lintseq").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sources]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    referenced = set().union(*map(_referenced_names, trees))
    unreached = [
        name for name in lintseq.__all__
        if not (name.startswith("__") and name.endswith("__")) and name not in referenced
    ]
    assert unreached == []


def test_bench_trace_targets_resolve():
    # perfbench/tracing.py patches each target by name and only warns when
    # one is gone, so a refactor could silently drop a layer from traced runs
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    unresolved = []
    for name, modname, path, _ in targets:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            # as Tracer.install does: a class attribute must be the class's own
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            unresolved.append(name)
            continue
        if not callable(getattr(raw, "__func__", raw)):
            unresolved.append(name)
    assert len(targets) > 20
    assert unresolved == []


def test_bench_trace_observes_generate_and_resolve(tmp_path):
    # the tracer's observers read results, diffs and records through the
    # package's API; run them on a tiny corpus and check what they counted
    programs = ["a = 1\nb = 2\n", "a = 1\nb = a + 1\nprint(b)\n", "def f(x):\n    return x\nf(1)\n"]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"p{i}", "instruction": "", "program": p}) + "\n"
        for i, p in enumerate(programs)
    ))
    records, resolved = tmp_path / "records.jsonl", tmp_path / "resolved.jsonl"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    headers = []
    for args in (["generate", "--input", corpus, "--output", records, "--seed", "3"],
                 ["resolve", "--input", records, "--output", resolved]):
        spans = tmp_path / f"spans-{args[0]}.tsv"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans), *map(str, args)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        with open(spans, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["missing"] == []
        assert header["exit_code"] == 0
        headers.append(header)
    rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    counters = headers[0]["counters"]
    assert counters["sequences"] == len(rows) == 5 * len(programs)
    assert counters["edits"] == sum(row["num_edits"] for row in rows)
    assert counters["hunks"] == sum(len(parse_diff(e).hunks) for row in rows for e in row["edits"])
    assert headers[1]["examples"] == ["p0", "p1", "p2"]
