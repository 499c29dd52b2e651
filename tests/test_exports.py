import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

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


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    programs = ["a = 1\nb = a + 1\n", "def f(x):\n    return x\nprint(f(2))", "x = 1\n"]
    (tmp_path / "corpus.jsonl").write_text("".join(
        json.dumps({"instruction": "", "program": p}) + "\n" for p in programs
    ))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    # the loop ran to the last example's last sequence
    assert namespace["program"] == programs[-1]
    assert namespace["seq"] is namespace["result"].sequences[-1]


def _run_python(code: str, cwd: pathlib.Path | None = None) -> str:
    """``code``'s stdout in a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by_cli_import(modules: tuple[str, ...]) -> str:
    """Which of ``modules`` a fresh ``import lintseq.cli`` loads, as printed."""
    return _run_python(f"import sys, lintseq.cli; print([m for m in {modules!r} if m in sys.modules])")


def test_cli_import_loads_no_process_pool():
    # sample_corpus imports the pool only as one starts, so a single-process
    # command does not load multiprocessing at start-up
    assert _loaded_by_cli_import(("multiprocessing", "concurrent.futures.process")) == "[]\n"


def test_cli_import_loads_no_subprocess_or_traceback():
    # only the external linter runs a process and only an example's internal
    # error formats a traceback, so a builtin run loads neither at start-up;
    # the modules tracing patches by name are loaded
    assert _loaded_by_cli_import(("subprocess", "shlex", "traceback")) == "[]\n"
    loaded = ("lintseq.lint", "lintseq.pycheck", "lintseq.sampler")
    assert _loaded_by_cli_import(loaded) == f"{list(loaded)!r}\n"


def _builtin_sha256_imports() -> bool:
    return any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


DUPLICATED = [
    {"id": "a", "instruction": "sum", "program": "a = 1\nb = a + 1\nprint(b)\n"},
    {"id": "b", "instruction": "sum", "program": "a = 1\nb = a + 1\nprint(b)\n"},
    {"id": "c", "instruction": "", "program": "x = 1\ny = 2\n"},
]


def _write_duplicated(tmp_path: pathlib.Path) -> None:
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in DUPLICATED), encoding="utf-8"
    )


@pytest.mark.skipif(not _builtin_sha256_imports(), reason="no builtin sha256 module")
def test_builtin_run_loads_no_openssl(tmp_path):
    # seeds and dedup keys hash with the interpreter's builtin sha256, so no
    # command of a builtin run loads hashlib and OpenSSL's libcrypto with it
    _write_duplicated(tmp_path)
    code = (
        "import sys\n"
        "from lintseq.cli import main\n"
        "assert main(['generate', '--input', 'corpus.jsonl', '--output', 'records.jsonl',\n"
        "             '--dedup', '--workers', '2', '--samples', '2']) == 0\n"
        "assert main(['resolve', '--input', 'records.jsonl', '--output', 'resolved.jsonl']) == 0\n"
        "assert main(['stats', '--input', 'records.jsonl']) == 0\n"
        "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])\n"
    )
    assert _run_python(code, tmp_path).splitlines()[-1] == "[]"


def test_hashlib_sha256_gives_the_same_seeds_and_records(tmp_path, monkeypatch):
    # with both builtin modules blocked, sha256 comes from hashlib, and every
    # seed and record is the same
    from lintseq.cli import main
    from lintseq.sampler import derive_seed

    _write_duplicated(tmp_path)
    argv = ["generate", "--input", "corpus.jsonl", "--dedup", "--samples", "2", "--seed", "5"]
    seeds = [(0, 0, 0), (7, 3, 2), (7, 3, 2, 1)]
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from lintseq.cli import main\n"
        "from lintseq.sampler import derive_seed\n"
        f"assert main({argv + ['--output', 'fallback.jsonl']!r}) == 0\n"
        f"print('hashlib' in sys.modules, [derive_seed(*s) for s in {seeds!r}])\n"
    )
    out = _run_python(code, tmp_path).splitlines()[-1]
    assert out == f"True {[derive_seed(*s) for s in seeds]!r}"
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "builtin.jsonl"]) == 0
    builtin = (tmp_path / "builtin.jsonl").read_bytes()
    assert builtin.count(b"\n") == 4  # the duplicate is dropped
    assert (tmp_path / "fallback.jsonl").read_bytes() == builtin


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
