"""Deterministic generator of small, checker-clean Python programs.

Two styles:

* ``coupled`` builds a single dependency spine (each stanza consumes the
  previous stanza's result), so deleting almost any line cascades through
  everything below it.  Used for edit-count calibration corpora.
* ``mixed`` adds blank lines, independent stanzas, and fresh sub-chains
  for variety.  Used for the large round-trip fixture.

Programs are asserted clean under the builtin checker at generation
time, so a dirty program is a generator bug, not a corpus property.
"""

from __future__ import annotations

import json
import random

from lintseq import check

_WORDS = ("delta", "gamma", "omega", "probe", "relay", "tally", "vector")


class _Writer:
    def __init__(self, rng: random.Random, style: str):
        self.rng = rng
        self.style = style
        self.lines: list[str] = []
        self.names: list[str] = []
        self.funcs: list[str] = []
        self.counter = 0
        self.has_math = False

    def fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def anchor(self) -> str:
        if self.names:
            return self.names[-1]
        return str(self.rng.randrange(2, 9))

    def maybe_blank(self) -> None:
        if self.style == "mixed" and self.lines and self.rng.random() < 0.4:
            self.lines.append("")

    def s_import(self) -> None:
        self.lines.append("import math")
        self.has_math = True

    def s_const(self) -> None:
        name = self.fresh()
        self.lines.append(f"{name} = {self.rng.randrange(2, 30)}")
        self.names.append(name)

    def s_derived(self) -> None:
        name = self.fresh()
        base = self.anchor()
        if self.has_math and self.rng.random() < 0.55:
            self.lines.append(f"{name} = math.floor({base} * 1.5)")
        else:
            op = self.rng.choice(("+", "*", "-"))
            self.lines.append(f"{name} = {base} {op} {self.rng.randrange(1, 9)}")
        self.names.append(name)

    def s_func(self) -> None:
        fname = self.fresh("f")
        self.maybe_blank()
        self.lines.append(f"def {fname}(p):")
        self.lines.append(f"    t = p + {self.anchor()}")
        if self.rng.random() < 0.5:
            self.lines.append(f"    u = t * {self.rng.randrange(2, 5)}")
            self.lines.append("    return u")
        else:
            self.lines.append("    return t")
        self.funcs.append(fname)

    def s_call(self) -> None:
        if not self.funcs:
            self.s_derived()
            return
        name = self.fresh()
        self.lines.append(f"{name} = {self.funcs[-1]}({self.anchor()})")
        self.names.append(name)

    def s_loop(self) -> None:
        acc = self.fresh()
        idx = self.fresh("i")
        bound = self.anchor() if self.style == "coupled" else self.rng.randrange(3, 7)
        self.lines.append(f"{acc} = {self.anchor()}")
        self.lines.append(f"for {idx} in range({bound}):")
        self.lines.append(f"    {acc} = {acc} + {idx}")
        self.names.append(acc)

    def s_cond(self) -> None:
        name = self.fresh()
        base = self.anchor()
        self.lines.append(f"if {base} > {self.rng.randrange(1, 9)}:")
        self.lines.append(f"    {name} = {base} - 1")
        self.lines.append("else:")
        self.lines.append(f"    {name} = 0")
        self.names.append(name)

    def s_banner(self) -> None:
        word = self.rng.choice(_WORDS)
        self.lines.append(f'print("{word}")')

    def s_print(self) -> None:
        self.lines.append(f"print({self.anchor()})")


def make_program(
    rng: random.Random, lo: int = 5, hi: int = 60, style: str = "coupled"
) -> tuple[str, str]:
    """Return one (instruction, program) pair with lo..hi lines."""
    target = rng.randint(lo, max(lo, hi - 5))
    w = _Writer(rng, style)
    # an import is its own dependency root, so the heavily chained style
    # keeps it rare; every root line costs one whole edit on average
    if rng.random() < (0.25 if style == "coupled" else 0.7):
        w.s_import()
    w.s_const()
    if style == "coupled":
        # one long dependency spine; at most one function block, consumed
        # right away so it joins the spine instead of dangling
        func_done = False
        while len(w.lines) < target - 1:
            roll = rng.random()
            if not func_done and len(w.lines) >= 3 and roll < 0.20:
                w.s_func()
                w.s_call()
                func_done = True
            elif roll < 0.32:
                w.s_loop()
            else:
                w.s_derived()
    else:
        stanzas = [w.s_derived, w.s_derived, w.s_func, w.s_call, w.s_call,
                   w.s_loop, w.s_cond, w.s_const, w.s_banner]
        while len(w.lines) < target - 1:
            rng.choice(stanzas)()
    w.s_print()
    program = "".join(line + "\n" for line in w.lines)
    instruction = rng.choice(
        (
            f"Write a Python script that chains {w.counter} computations and prints the result.",
            "Write a short Python program that derives a value step by step and prints it.",
            f"Create a Python script around {len(w.funcs)} helper function(s) that prints its output.",
        )
    )
    return instruction, program


def write_corpus(
    path: str,
    count: int,
    seed: int,
    lo: int = 5,
    hi: int = 60,
    style: str = "mixed",
) -> None:
    """Write a JSONL corpus of freshly generated clean programs."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(count):
            instruction, program = make_program(rng, lo, hi, style)
            found = check(program)
            if found:
                raise AssertionError(f"generated program is not clean: {found}\n{program}")
            row = {"id": f"gen-{i:04d}", "instruction": instruction, "program": program}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
