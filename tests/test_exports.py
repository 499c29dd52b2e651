import ast
import importlib
import pathlib
import re

import lintseq

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
