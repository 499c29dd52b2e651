"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout:  ``python3 perfbench/selftest.py``

It checks that BENCHMARK.json and ``run.py`` name the same metrics with
the same units, that every workload prints every metric with its unit in
both modes with ``correct`` true, that ``long`` and ``pool`` produce the
same records, and that a corrupted records file fails the output check.
Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, build_corpus  # noqa: E402

TINY = {"short": 3, "long": 1, "randseq": 3, "pool": 1}
SEED = 7

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def spec_matches_table() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check(spec["command"] == ["python3", "perfbench/run.py"], "BENCHMARK.json command")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        check(listed == table, f"BENCHMARK.json {key} names, units and directions match run.py")


def tiny_run(workload: str, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
         "--size", str(TINY[workload])],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and bool(lines), f"{workload} trace {trace}: exits 0 with output")
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    table = run.PER_LAYER if trace else run.END_TO_END
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace {trace}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{workload} trace {trace}: correct, nothing failed")
    metrics = result["metrics"]
    check(list(metrics) == list(table), f"{workload} trace {trace}: every metric, in order")
    check(
        all(metrics[k]["unit"] == u and isinstance(metrics[k]["value"], (int, float))
            and math.isfinite(metrics[k]["value"]) for k, (u, _) in table.items() if k in metrics),
        f"{workload} trace {trace}: numeric values with units",
    )
    printed = {parts[0]: parts[-1] for parts in (line.split() for line in lines[:-1]) if len(parts) == 3}
    check(
        all(printed.get(k) == u for k, (u, _) in table.items()),
        f"{workload} trace {trace}: each metric printed on its own line with its unit",
    )
    return result


def long_equals_pool() -> None:
    shas = []
    for workload in ("long", "pool"):
        path = os.path.join(run.OUT_DIR, f"{workload}-seed{SEED}-trace0.json")
        with open(path, encoding="utf-8") as fh:
            shas.append(json.load(fh)["checked"]["records_sha256"])
    check(shas[0] == shas[1], "long and pool records are byte-identical")


def corrupted_records_fail() -> None:
    root = os.getcwd()
    corpus = build_corpus(WORKLOADS["short"], SEED, 3)
    bench = run.Bench(root, WORKLOADS["short"], SEED, corpus)
    try:
        done = bench.one_pass(0, False, SEED)
        with open(done["records"], "rb") as fh:
            data = fh.read()
        clean = run._check_pass(data, done["resolved"], corpus.programs)
        check(clean["bad_records"] == 0 and clean["records"] == 15, "pristine records pass the output check")
        # change one inserted line of the first record's training text
        first, rest = data.split(b"\n", 1)
        record = json.loads(first)
        record["training_text"] = record["training_text"].replace("\n+", "\n+#", 1)
        corrupted = (json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n").encode() + rest
        with open(done["records"], "wb") as fh:
            fh.write(corrupted)
        bench.cli(["resolve", "--input", done["records"], "--output", done["resolved"]])
        bad = run._check_pass(corrupted, done["resolved"], corpus.programs)
        check(bad["bad_records"] == 1, "a corrupted record fails the output check")
    finally:
        bench.close()


def refuses_without_program() -> None:
    """In a directory holding only the benchmark, run.py fails without a result."""
    bare = os.path.join(run.WORK_DIR, f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copyfile("BENCHMARK.json", os.path.join(bare, "BENCHMARK.json"))
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "short", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(), "without src/ it exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    if not os.path.isfile(os.path.join("src", "lintseq", "cli.py")):
        print("run from the root of a lintseq checkout", file=sys.stderr)
        return 2
    spec_matches_table()
    for workload in WORKLOADS:
        for trace in (0, 1):
            tiny_run(workload, trace)
    long_equals_pool()
    corrupted_records_fail()
    refuses_without_program()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
