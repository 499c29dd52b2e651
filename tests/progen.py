"""Deterministic generator of small, checker-clean Python programs.

Three styles:

* ``coupled`` builds a single dependency spine (each stanza consumes the
  previous stanza's result), so deleting almost any line cascades through
  everything below it.  Used for edit-count calibration corpora.
* ``mixed`` adds blank lines, independent stanzas, and fresh sub-chains
  for variety.  Used for the large round-trip fixture.
* ``rich`` is shaped like instruction-tuning code: a module docstring,
  ``try``/``except ... as``/``else``/``finally``, ``while``/``else`` and
  ``for``/``else``, ``with ... as``, a decorated class with methods, a
  nested ``def`` with ``nonlocal``, comprehensions, lambdas, f-strings
  and docstrings, all in syntax that Python 3.10 accepts.  It leaves out
  what the builtin checker still flags on clean code: lambda defaults,
  bare annotations in a class body, a ``global`` name read back at module
  level, and string literals inside f-string fields.

Programs are asserted to compile and to lint clean under the builtin
checker at generation time, so a dirty program is a generator bug, not a
corpus property.
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
        self.has_registry = False

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
        if self.style == "rich":
            self.lines.append(f'    """Offset p by {self.anchor()}."""')
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

    # -- the rich style's stanzas --------------------------------------

    def s_docstring(self) -> None:
        word = self.rng.choice(_WORDS)
        if self.rng.random() < 0.5:
            self.lines.append(f'"""Derive {word} values step by step."""')
        else:
            self.lines += [f'"""Derive {word} values.', "", "Each step reads the one before.", '"""']

    def s_try(self) -> None:
        name = self.fresh()
        base = self.anchor()
        self.lines += [
            "try:",
            f"    {name} = {self.rng.randrange(20, 90)} // ({base} - {self.rng.randrange(1, 9)})",
            "except (ZeroDivisionError, ValueError) as e:",
            f"    {name} = len(str(e))",
        ]
        if self.rng.random() < 0.6:
            self.lines += ["else:", f"    {name} = {name} + 1"]
        if self.rng.random() < 0.5:
            self.lines += ["finally:", f'    print("{self.rng.choice(_WORDS)}")']
        self.names.append(name)

    def s_while(self) -> None:
        name = self.fresh("n")
        self.lines += [
            f"{name} = {self.anchor()}",
            f"while {name} > {self.rng.randrange(2, 9)}:",
            f"    {name} -= {self.rng.randrange(2, 5)}",
            "else:",
            f"    {name} = {name} * 2",
        ]
        self.names.append(name)

    def s_for_else(self) -> None:
        name = self.fresh()
        idx = self.fresh("i")
        base = self.anchor()
        self.lines += [
            f"{name} = 0",
            f"for {idx} in range({base}):",
            f"    if {idx} * {idx} > {base}:",
            f"        {name} = {idx}",
            "        break",
            "else:",
            f"    {name} = -1",
        ]
        self.names.append(name)

    def s_with(self) -> None:
        name = self.fresh()
        self.lines += [
            f'with io.StringIO(f"{{{self.anchor()}}} {self.rng.choice(_WORDS)}") as buf:',
            f"    {name} = len(buf.read())",
        ]
        self.names.append(name)

    def s_class(self) -> None:
        cls = self.fresh("Probe")
        base = self.anchor()
        if not self.has_registry:
            self.lines += [
                "",
                "",
                "def registered(cls):",
                '    """Mark a class as registered."""',
                "    cls.registered = True",
                "    return cls",
            ]
            self.has_registry = True
        self.lines += [
            "",
            "",
            "@registered",
            f"class {cls}:",
            f'    """Hold one {self.rng.choice(_WORDS)} reading."""',
            "",
            f"    scale = {self.rng.randrange(2, 5)}",
            "",
            "    def __init__(self, value):",
            "        self.value = value",
            "",
            "    def scaled(self):",
            "        return self.value * self.scale",
            "",
            "    @staticmethod",
            "    def label(x):",
            '        return f"{x!r}: {x:>6}"',
            "",
            "",
        ]
        name = self.fresh()
        self.lines.append(f"{name} = {cls}({base}).scaled()")
        self.lines.append(f"print({cls}.label({name}))")
        self.names.append(name)

    def s_closure(self) -> None:
        fname = self.fresh("make")
        self.lines += [
            "",
            "",
            f"def {fname}(start):",
            '    """Return a function that adds to a running total.',
            "",
            "    The total starts at ``start``.",
            '    """',
            "    total = start",
            "",
            "    def bump(step):",
            "        nonlocal total",
            "        total += step",
            "        return total",
            "",
            "    return bump",
            "",
            "",
        ]
        name = self.fresh()
        self.lines.append(f"{name} = {fname}({self.anchor()})({self.rng.randrange(1, 9)})")
        self.names.append(name)

    def s_comprehension(self) -> None:
        items, pairs, name = self.fresh("xs"), self.fresh("pairs"), self.fresh()
        self.lines += [
            f"{items} = [x * 2 for x in range({self.anchor()}) if x % 3]",
            f"{pairs} = {{k: len(str(k)) for k in {items}}}",
            f"{name} = sum(v for _, v in sorted({pairs}.items(), key=lambda kv: -kv[1]))",
            f'print(f"{{{name}}} from {{len({items})}} items")',
        ]
        self.names.append(name)


def make_program(
    rng: random.Random, lo: int = 5, hi: int = 60, style: str = "coupled"
) -> tuple[str, str]:
    """Return one (instruction, program) pair with lo..hi lines."""
    target = rng.randint(lo, max(lo, hi - 5))
    w = _Writer(rng, style)
    if style == "rich":
        w.s_docstring()
        w.lines.append("import io")
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
        if style == "rich":
            stanzas = [w.s_derived, w.s_func, w.s_call, w.s_cond, w.s_try, w.s_while,
                       w.s_for_else, w.s_with, w.s_class, w.s_closure, w.s_comprehension]
        while len(w.lines) < target - 1:
            rng.choice(stanzas)()
    w.s_print()
    program = "".join(line + "\n" for line in w.lines)
    compile(program, f"<progen {style}>", "exec")
    found = check(program)
    if found:
        raise AssertionError(f"generated program is not clean: {found}\n{program}")
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
            row = {"id": f"gen-{i:04d}", "instruction": instruction, "program": program}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
