"""Benchmark inputs: the four workloads and the corpora they are built from.

Every corpus is a pure function of the workload seed (and, for the stdlib
panel, of the running interpreter's standard library, which provenance
records).  Nothing here imports the package under test, so the inputs do
not change when the program does.

``mixed`` programs come from a frozen copy of the ``mixed`` style of the
repository's test generator (``tests/progen.py``).  The copy keeps the
benchmark's inputs fixed when the tests' generator evolves, and it checks
each program with the interpreter's own compiler instead of the package's
checker, so building the inputs never depends on the code being measured.
Program lengths follow a balanced schedule (every length in the range
equally often, in seeded order) rather than independent draws, which keeps
the total work of a corpus nearly the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sysconfig
from dataclasses import dataclass

SAMPLES = 5  # sequences per example, as in the README's generate example

_WORDS = ("delta", "gamma", "omega", "probe", "relay", "tally", "vector")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # lintseq | randseq
    workers: int
    source: str  # mixed | stdlib
    size: int  # examples in the corpus
    lo: int = 5
    hi: int = 60


# The stdlib panel is fixed (files at evenly spaced size ranks) and only the
# sampling seed varies with --seed: a seeded draw of a dozen 300-2000-line
# files changes the work of a pass by a third from seed to seed, far beyond
# any bound a throughput metric can carry.
STDLIB_LO, STDLIB_HI, STDLIB_PANEL = 300, 2000, 6

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short", "instruction-sized programs: flow cascade plus per-example fixed costs",
            mode="lintseq", workers=1, source="mixed", size=400,
        ),
        Workload(
            "long", "real 300-2000-line stdlib modules: the quadratic flow cascade dominates",
            mode="lintseq", workers=1, source="stdlib", size=STDLIB_PANEL,
            lo=STDLIB_LO, hi=STDLIB_HI,
        ),
        Workload(
            "randseq", "checker-free mode on a large corpus: load, diff, encode, write, resolve",
            mode="randseq", workers=1, source="mixed", size=2500,
        ),
        Workload(
            "pool", "the long corpus on a 2-worker pool: submission, chunking, result transfer",
            mode="lintseq", workers=2, source="stdlib", size=STDLIB_PANEL,
            lo=STDLIB_LO, hi=STDLIB_HI,
        ),
    )
}


class _Writer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: list[str] = []
        self.names: list[str] = []
        self.funcs: list[str] = []
        self.counter = 0
        self.has_math = False

    def fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def anchor(self) -> str:
        return self.names[-1] if self.names else str(self.rng.randrange(2, 9))

    def const(self) -> None:
        name = self.fresh()
        self.lines.append(f"{name} = {self.rng.randrange(2, 30)}")
        self.names.append(name)

    def derived(self) -> None:
        name, base = self.fresh(), self.anchor()
        if self.has_math and self.rng.random() < 0.55:
            self.lines.append(f"{name} = math.floor({base} * 1.5)")
        else:
            op = self.rng.choice(("+", "*", "-"))
            self.lines.append(f"{name} = {base} {op} {self.rng.randrange(1, 9)}")
        self.names.append(name)

    def func(self) -> None:
        fname = self.fresh("f")
        if self.lines and self.rng.random() < 0.4:
            self.lines.append("")
        self.lines.append(f"def {fname}(p):")
        self.lines.append(f"    t = p + {self.anchor()}")
        if self.rng.random() < 0.5:
            self.lines.append(f"    u = t * {self.rng.randrange(2, 5)}")
            self.lines.append("    return u")
        else:
            self.lines.append("    return t")
        self.funcs.append(fname)

    def call(self) -> None:
        if not self.funcs:
            self.derived()
            return
        name = self.fresh()
        self.lines.append(f"{name} = {self.funcs[-1]}({self.anchor()})")
        self.names.append(name)

    def loop(self) -> None:
        acc, idx = self.fresh(), self.fresh("i")
        self.lines.append(f"{acc} = {self.anchor()}")
        self.lines.append(f"for {idx} in range({self.rng.randrange(3, 7)}):")
        self.lines.append(f"    {acc} = {acc} + {idx}")
        self.names.append(acc)

    def cond(self) -> None:
        name, base = self.fresh(), self.anchor()
        self.lines.append(f"if {base} > {self.rng.randrange(1, 9)}:")
        self.lines.append(f"    {name} = {base} - 1")
        self.lines.append("else:")
        self.lines.append(f"    {name} = 0")
        self.names.append(name)

    def banner(self) -> None:
        self.lines.append(f'print("{self.rng.choice(_WORDS)}")')


def mixed_program(rng: random.Random, target: int) -> tuple[str, str]:
    """One (instruction, program) pair of about ``target`` lines."""
    w = _Writer(rng)
    if rng.random() < 0.7:
        w.lines.append("import math")
        w.has_math = True
    w.const()
    stanzas = (w.derived, w.derived, w.func, w.call, w.call, w.loop, w.cond, w.const, w.banner)
    while len(w.lines) < target - 1:
        rng.choice(stanzas)()
    w.lines.append(f"print({w.anchor()})")
    program = "".join(line + "\n" for line in w.lines)
    instruction = rng.choice((
        f"Write a Python script that chains {w.counter} computations and prints the result.",
        "Write a short Python program that derives a value step by step and prints it.",
        f"Create a Python script around {len(w.funcs)} helper function(s) that prints its output.",
    ))
    return instruction, program


def _mixed_rows(seed: int, count: int, lo: int, hi: int) -> list[dict]:
    rng = random.Random(f"perfbench-mixed:{seed}")
    # every target length in [lo, hi - 5] equally often, in seeded order
    lengths = list(range(lo, max(lo, hi - 5) + 1))
    schedule = []
    while len(schedule) < count:
        batch = lengths[:]
        rng.shuffle(batch)
        schedule.extend(batch)
    rows = []
    for i, target in enumerate(schedule[:count]):
        instruction, program = mixed_program(rng, target)
        compile(program, f"<mixed-{i}>", "exec")  # generator bug if this raises
        rows.append({"id": f"mix-{seed}-{i:05d}", "instruction": instruction, "program": program})
    return rows


def stdlib_candidates(lo: int = STDLIB_LO, hi: int = STDLIB_HI) -> list[tuple[str, int]]:
    """Top-level stdlib modules with lo..hi lines, as (file name, lines)."""
    root = sysconfig.get_paths()["stdlib"]
    out = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            n = len(fh.read().splitlines())
        if lo <= n <= hi:
            out.append((name, n))
    return out


def stdlib_panel(size: int, lo: int = STDLIB_LO, hi: int = STDLIB_HI) -> list[str]:
    """Files at evenly spaced ranks of the candidates sorted by length."""
    ranked = sorted(stdlib_candidates(lo, hi), key=lambda c: (c[1], c[0]))
    if len(ranked) < size:
        raise RuntimeError(f"only {len(ranked)} stdlib modules have {lo}-{hi} lines")
    picks = [ranked[(2 * i + 1) * len(ranked) // (2 * size)][0] for i in range(size)]
    return sorted(picks)


def _stdlib_rows(size: int, lo: int, hi: int) -> tuple[list[dict], list[str]]:
    root = sysconfig.get_paths()["stdlib"]
    names = stdlib_panel(size, lo, hi)
    rows = []
    for name in names:
        with open(os.path.join(root, name), encoding="utf-8", newline="") as fh:
            text = fh.read().replace("\r\n", "\n").replace("\r", "\n")
        compile(text, name, "exec")
        rows.append({"id": name, "instruction": f"Write the module {name}.", "program": text})
    return rows, names


@dataclass(frozen=True)
class Corpus:
    rows: list[dict]
    jsonl: bytes
    provenance: dict

    @property
    def programs(self) -> dict[str, str]:
        return {r["id"]: r["program"] for r in self.rows}


def build_corpus(workload: Workload, seed: int, size: int | None = None) -> Corpus:
    """The workload's corpus for ``seed``; ``size`` overrides the example count."""
    size = workload.size if size is None else size
    files = None
    if workload.source == "mixed":
        rows = _mixed_rows(seed, size, workload.lo, workload.hi)
        generator = "perfbench mixed (frozen copy of tests/progen.py style=mixed)"
    else:
        rows, files = _stdlib_rows(size, workload.lo, workload.hi)
        generator = "stdlib panel (evenly spaced size ranks)"
    jsonl = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode("utf-8")
    provenance = {
        "workload": workload.name,
        "seed": seed,
        "generator": generator,
        "line_range": [workload.lo, workload.hi],
        "examples": len(rows),
        "source_lines": sum(len(r["program"].splitlines()) for r in rows),
        "stdlib_files": files,
        "stdlib_root": sysconfig.get_paths()["stdlib"] if files else None,
        "corpus_sha256": hashlib.sha256(jsonl).hexdigest(),
        "mode": workload.mode,
        "workers": workload.workers,
        "samples": SAMPLES,
    }
    return Corpus(rows, jsonl, provenance)
