"""Benchmark of ``lintseq generate`` followed by ``lintseq resolve``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload short --seed 1 --seconds 25 --trace 0

One run builds the workload's corpus from ``--seed`` (before any timing),
then drives the real CLI from ``src/`` as a closed loop: one ``generate``
process works through the whole corpus, one ``resolve`` process rebuilds
every program from its records, and the next round starts when both have
finished.  Rounds repeat while the next one still fits in ``--seconds``;
there is always at least one.  They cycle through three ``generate --seed``
values derived from ``--seed``.  Every pass's records are checked against
the source programs, and must be byte-identical to those of any other pass
or run with the same inputs, ``long`` and ``pool`` included
(``.perfbench_out/records-sha256.json`` remembers the hashes).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run under ``perfbench/tracing.py`` and reports
the per-layer metrics, the layers' self times and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give provenance, the records hash and the readings that are not gated
(``failed_share`` and ``prefix_unparsable_share``).  A full result with
every pass is written to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import procs  # noqa: E402
import tracing  # noqa: E402
from workloads import SAMPLES, WORKLOADS, Corpus, Workload, build_corpus  # noqa: E402

SETUP_REPEATS = 7
SAMPLING_SEEDS = 3  # rounds cycle through this many generate --seed values
PREFIX_RECORDS = 400  # records judged by ast.parse, evenly spaced
PREFIX_STATES = 8  # prefix states judged per record, evenly spaced
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
# set-up time is measured on this one tiny example, whatever the workload
SETUP_EXAMPLE = {"id": "setup", "program": "import math\nv1 = 3\nprint(math.floor(v1 * 1.5))\n"}
CLI = "import sys; from lintseq.cli import run; sys.argv[0] = 'lintseq'; run()"

# name -> (unit, better); BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": ("s", "lower"),
    "generate_examples_per_s": ("1/s", "higher"),
    "resolve_records_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "pycheck.flow.calls": ("count", "lower"),
    "pycheck.flow.s": ("s", "lower"),
    "pycheck.flow.us_p50": ("us", "lower"),
    "pycheck.flow.us_p99": ("us", "lower"),
    "pycheck.flow.calls_per_edit": ("calls/edit", "lower"),
    "pycheck.scan_line.calls": ("count", "lower"),
    "pycheck.scan_line.per_source_line": ("scans/line", "lower"),
    "pycheck.analyses_per_example": ("count/example", "lower"),
    "lint.check_text.calls": ("count", "lower"),
    "lint.check_text.s": ("s", "lower"),
    "sampler.backward_sample.ms_p50": ("ms", "lower"),
    "sampler.backward_sample.ms_p99": ("ms", "lower"),
    "sampler.edits_per_sequence": ("edits/seq", "lower"),
    "sampler.lines_per_edit": ("lines/edit", "higher"),
    "sampler.random_sample.s": ("s", "lower"),
    "sampler.state_text_bytes": ("bytes", "lower"),
    "sampler.result_pickle_bytes.max": ("bytes", "lower"),
    "sampler.result_pickle_bytes.sum": ("bytes", "lower"),
    "sampler.result_wait_ms_p50": ("ms", "lower"),
    "sampler.result_wait_ms_p99": ("ms", "lower"),
    "diffkit.diff_states.s": ("s", "lower"),
    "diffkit.diff_states.us_per_edit": ("us", "lower"),
    "diffkit.hunks": ("count", "lower"),
    "editcodec.serialize.s": ("s", "lower"),
    "editcodec.resolve_stream.s": ("s", "lower"),
    "editcodec.apply.calls": ("count", "lower"),
    "editcodec.apply.us_per_edit": ("us", "lower"),
    "editcodec.parse_diff.s": ("s", "lower"),
    "corpus.load_corpus.s": ("s", "lower"),
    "corpus.to_json.s": ("s", "lower"),
    "corpus.record_bytes": ("bytes", "lower"),
    "corpus.from_json.s": ("s", "lower"),
    "cli.generate.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "corpus.self_s": ("s", "lower"),
    "lint.self_s": ("s", "lower"),
    "pycheck.self_s": ("s", "lower"),
    "sampler.self_s": ("s", "lower"),
    "diffkit.self_s": ("s", "lower"),
    "editcodec.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}

LAYERS = ("cli", "corpus", "lint", "pycheck", "sampler", "diffkit", "editcodec")


class Bench:
    """One benchmark run: a workload's inputs, scratch files and results."""

    def __init__(self, root: str, workload: Workload, seed: int, corpus: Corpus):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.corpus = corpus
        self.work = os.path.join(root, WORK_DIR, f"{workload.name}-{seed}-{os.getpid()}")
        os.makedirs(self.work)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.corpus_path = self.path("corpus.jsonl")
        with open(self.corpus_path, "wb") as fh:
            fh.write(corpus.jsonl)
        self.one_path = self.path("one.jsonl")
        with open(self.one_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SETUP_EXAMPLE) + "\n")
        self.problems: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def generate_args(self, corpus: str, out: str, seed: int) -> list[str]:
        w = self.workload
        return [
            "generate", "--input", corpus, "--output", out, "--mode", w.mode,
            "--samples", str(SAMPLES), "--seed", str(seed), "--workers", str(w.workers),
        ]

    def sampling_seed(self, round_index: int) -> int:
        return self.seed * SAMPLING_SEEDS + round_index % SAMPLING_SEEDS

    def cli(self, args: list[str]) -> procs.ProcResult:
        return self._run([sys.executable, "-c", CLI, *args], args[0])

    def traced(self, args: list[str], spans: str) -> procs.ProcResult:
        return self._run([sys.executable, os.path.join(HERE, "tracing.py"), spans, *args], "traced " + args[0])

    def _run(self, argv: list[str], what: str) -> procs.ProcResult:
        result = procs.run(argv, self.env, self.root)
        if result.returncode != 0:  # 2 means skipped examples or bad records
            tail = " | ".join(result.stderr.strip().splitlines()[-3:])
            self.problems.append(f"{what} exited {result.returncode}: {tail[-500:]}")
        return result

    # -- passes --------------------------------------------------------

    def setup_s(self) -> list[float]:
        out = self.path("one.records.jsonl")
        args = self.generate_args(self.one_path, out, self.seed)
        return [self.cli(args).wall_s for _ in range(SETUP_REPEATS)]

    def one_pass(self, i: int, traced: bool, seed: int) -> dict:
        records = self.path(f"records-{i}.jsonl")
        resolved = self.path(f"resolved-{i}.jsonl")
        gen_args = self.generate_args(self.corpus_path, records, seed)
        res_args = ["resolve", "--input", records, "--output", resolved]
        if traced:
            gen = self.traced(gen_args, self.path(f"spans-gen-{i}.tsv"))
            res = self.traced(res_args, self.path(f"spans-res-{i}.tsv"))
        else:
            gen = self.cli(gen_args)
            res = self.cli(res_args)
        return {
            "index": i,
            "traced": traced,
            "sampling_seed": seed,
            "generate_s": gen.wall_s,
            "resolve_s": res.wall_s,
            "generate_peak_rss_kb": gen.peak_rss_kb,
            "generate_exit": gen.returncode,
            "resolve_exit": res.returncode,
            "dump_s": _dump_s(gen.stderr) + _dump_s(res.stderr),
            "records": records,
            "resolved": resolved,
        }

    def passes(self, seconds: float, trace: bool) -> list[dict]:
        """Rounds of passes while the next round fits in ``seconds``.

        There is at least one round.  A round is one pass, or in a trace run
        one untraced and one traced pass with the same sampling seed.  Only
        the passes' own wall time counts towards ``seconds``; each pass is
        checked right after it ends, off the clock.
        """
        done: list[dict] = []
        measured = 0.0
        rounds = 0
        while True:
            seed = self.sampling_seed(rounds)
            for traced in (False, True) if trace else (False,):
                p = self.one_pass(len(done), traced, seed)
                measured += p["generate_s"] + p["resolve_s"]
                self.inspect(p)
                done.append(p)
            rounds += 1
            if measured + measured / rounds > seconds:
                return done

    # -- checks --------------------------------------------------------

    def inspect(self, p: dict) -> None:
        """Check one pass's records, then drop its files (pass 0 keeps its records)."""
        data = b""
        if os.path.exists(p["records"]):  # absent when generate failed
            with open(p["records"], "rb") as fh:
                data = fh.read()
        p["records_sha256"] = hashlib.sha256(data).hexdigest()
        p["outcome"] = _check_pass(data, p["resolved"], self.corpus.programs)
        for path in (p["resolved"], p["records"]) if p["index"] else (p["resolved"],):
            if os.path.exists(path):
                os.remove(path)

    def check(self, done: list[dict]) -> dict:
        """Every pass is clean, and passes with one sampling seed agree."""
        programs = self.corpus.programs
        expected = len(programs) * SAMPLES
        by_seed: dict[int, tuple[str, dict]] = {}
        attempted = failed = 0
        for p in done:
            sha, outcome = p["records_sha256"], p["outcome"]
            attempted += len(programs) + outcome["records"]
            failed += outcome["skipped_examples"] + outcome["bad_records"]
            if outcome["records"] != expected:
                self.problems.append(f"pass {p['index']}: {outcome['records']} records, expected {expected}")
            seen = by_seed.setdefault(p["sampling_seed"], (sha, outcome))
            if seen != (sha, outcome):
                self.problems.append(
                    f"pass {p['index']}: records differ from an earlier pass with sampling seed {p['sampling_seed']}"
                )
        for seed, (sha, _) in by_seed.items():
            self._check_store(seed, sha)
        return {
            "records_sha256": {seed: sha for seed, (sha, _) in by_seed.items()},
            "examples": len(programs),
            "attempted": attempted,
            "failed": failed,
        }

    def _check_store(self, seed: int, sha: str) -> None:
        """Same inputs and same source tree must give the same records.

        The key leaves out the worker count, so ``long`` and ``pool`` runs
        with one seed check each other.
        """
        key = hashlib.sha256(
            json.dumps([
                self.corpus.provenance["corpus_sha256"], self.workload.mode, SAMPLES,
                seed, _source_tree_sha(self.root),
            ]).encode()
        ).hexdigest()
        store = os.path.join(self.root, OUT_DIR, "records-sha256.json")
        known = {}
        if os.path.exists(store):
            with open(store, encoding="utf-8") as fh:
                known = json.load(fh)
        seen = known.get(key)
        if seen is not None and seen["sha256"] != sha:
            self.problems.append(
                f"records sha256 {sha} differs from {seen['sha256']} of an earlier "
                f"{seen['workload']} run with the same inputs"
            )
            return
        known[key] = {"sha256": sha, "workload": self.workload.name, "sampling_seed": seed}
        _write_json(store, known)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(self.root, WORK_DIR))
        except OSError:
            pass


def _dump_s(stderr: str) -> float:
    for line in stderr.splitlines():
        if line.startswith("perfbench-trace-dump-s "):
            return float(line.split()[1])
    return 0.0


def _source_tree_sha(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _check_pass(records_data: bytes, resolved_path: str, programs: dict[str, str]) -> dict:
    """Every record resolves to its source program's exact text."""
    records = [json.loads(line) for line in records_data.decode("utf-8").splitlines() if line]
    rows = []
    if os.path.exists(resolved_path):
        with open(resolved_path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
    bad = abs(len(records) - len(rows))
    for rec, row in zip(records, rows):
        ok = (
            row.get("ok") is True
            and row.get("matches_source") is True
            and row.get("source_id") == rec.get("source_id")
            and row.get("program") == programs.get(rec.get("source_id"))
            and rec.get("program") == programs.get(rec.get("source_id"))
        )
        bad += not ok
    produced = {r.get("source_id") for r in records}
    return {
        "records": len(records),
        "bad_records": bad,
        "skipped_examples": sum(1 for sid in programs if sid not in produced),
    }


def prefix_unparsable_share(records_path: str, root: str) -> dict:
    """Share of resolved prefix states that ``ast.parse`` rejects.

    Only records whose source parses count.  At most PREFIX_RECORDS
    records (evenly spaced) and PREFIX_STATES states per record (evenly
    spaced, the final state included) are judged, so the reading is a
    deterministic function of the records file.
    """
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        from lintseq.diffkit import DiffError
        from lintseq.editcodec import resolve_prefixes
    finally:
        sys.path.pop(0)
    lines = []
    if os.path.exists(records_path):  # absent when generate failed
        with open(records_path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
    step = max(1, -(-len(lines) // PREFIX_RECORDS))
    judged = rejected = 0
    for line in lines[::step]:
        rec = json.loads(line)
        try:
            ast.parse(rec["program"])
            states = resolve_prefixes(rec["training_text"])
        except (SyntaxError, DiffError):  # bad records are counted by the output check
            continue
        n = len(states)
        picks = sorted({round(j * (n - 1) / (PREFIX_STATES - 1)) for j in range(PREFIX_STATES)}) if n > PREFIX_STATES else range(n)
        for j in picks:
            judged += 1
            try:
                ast.parse(states[j])
            except SyntaxError:
                rejected += 1
    return {"judged": judged, "rejected": rejected, "share": rejected / judged if judged else 0.0}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def layer_metrics(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its generate and resolve spans)."""
    durs: dict[str, list[int]] = {}
    selfs: dict[str, int] = {}
    counters: dict[str, int] = {}
    spans = 0
    missing: set[str] = set()
    for path in span_files:
        header, rows = tracing.load(path)
        names = header["names"]
        missing.update(header["missing"])
        for key, value in header["counters"].items():
            counters[key] = counters.get(key, 0) + value
        child = [0] * len(rows)
        for sid, t0, t1, parent, _ in rows:
            if parent >= 0:
                child[parent] += t1 - t0
        # rows are written in call order, so a row's index is its span index
        for i, (sid, t0, t1, parent, _) in enumerate(rows):
            name = names[sid]
            durs.setdefault(name, []).append(t1 - t0)
            if not name.startswith("bench."):
                selfs[name] = selfs.get(name, 0) + (t1 - t0 - child[i])
        spans += len(rows)

    def total_s(name: str) -> float:
        return sum(durs.get(name, ())) / 1e9

    def calls(name: str) -> int:
        return len(durs.get(name, ()))

    def pct(name: str, q: float, scale: float) -> float:
        return _percentile(durs.get(name, []), q) / scale

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    edits = counters.get("edits", 0)
    m = {
        "pycheck.flow.calls": calls("pycheck.flow"),
        "pycheck.flow.s": total_s("pycheck.flow"),
        "pycheck.flow.us_p50": pct("pycheck.flow", 50, 1e3),
        "pycheck.flow.us_p99": pct("pycheck.flow", 99, 1e3),
        "pycheck.flow.calls_per_edit": ratio(calls("pycheck.flow"), edits),
        "pycheck.scan_line.calls": calls("pycheck.scan_line"),
        "pycheck.scan_line.per_source_line": ratio(calls("pycheck.scan_line"), counters.get("source_lines", 0)),
        "pycheck.analyses_per_example": ratio(calls("pycheck.Analysis"), counters.get("examples", 0)),
        "lint.check_text.calls": calls("lint.check_text"),
        "lint.check_text.s": total_s("lint.check_text"),
        "sampler.backward_sample.ms_p50": pct("sampler.backward_sample", 50, 1e6),
        "sampler.backward_sample.ms_p99": pct("sampler.backward_sample", 99, 1e6),
        "sampler.edits_per_sequence": ratio(edits, counters.get("sequences", 0)),
        "sampler.lines_per_edit": ratio(counters.get("sequence_lines", 0), edits),
        "sampler.random_sample.s": total_s("sampler.random_sample"),
        "sampler.state_text_bytes": counters.get("state_text_bytes", 0),
        "sampler.result_pickle_bytes.max": counters.get("result_pickle_bytes_max", 0),
        "sampler.result_pickle_bytes.sum": counters.get("result_pickle_bytes_sum", 0),
        "sampler.result_wait_ms_p50": pct("sampler.sample_corpus.next", 50, 1e6),
        "sampler.result_wait_ms_p99": pct("sampler.sample_corpus.next", 99, 1e6),
        "diffkit.diff_states.s": total_s("diffkit.diff_states"),
        "diffkit.diff_states.us_per_edit": ratio(total_s("diffkit.diff_states") * 1e6, edits),
        "diffkit.hunks": counters.get("hunks", 0),
        "editcodec.serialize.s": total_s("editcodec.serialize"),
        "editcodec.resolve_stream.s": total_s("editcodec.resolve_stream"),
        "editcodec.apply.calls": calls("editcodec.apply"),
        "editcodec.apply.us_per_edit": ratio(total_s("editcodec.apply") * 1e6, calls("editcodec.apply")),
        "editcodec.parse_diff.s": total_s("editcodec.parse_diff"),
        "corpus.load_corpus.s": total_s("corpus.load_corpus"),
        "corpus.to_json.s": total_s("corpus.to_json"),
        "corpus.record_bytes": counters.get("record_bytes", 0),
        "corpus.from_json.s": total_s("corpus.from_json"),
        "cli.generate.self_s": sum(
            v for k, v in selfs.items() if k == "cli.cmd_generate" or k.startswith("cli.records.")
        ) / 1e9,
        "trace.spans": spans,
    }
    if missing:  # a target the package no longer has; its metrics read 0
        print(f"warning: not traced: {', '.join(sorted(missing))}", file=sys.stderr)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.split(".")[0] == layer) / 1e9
    return m


def _write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: str, size: int | None) -> dict:
    corpus = build_corpus(workload, seed, size)  # inputs exist before any timing
    bench = Bench(root, workload, seed, corpus)
    try:
        bench.cli(bench.generate_args(bench.one_path, bench.path("warm.jsonl"), seed))  # fills .pyc caches
        setup = [] if trace else bench.setup_s()
        done = bench.passes(seconds, trace)
        checked = bench.check(done)
        prefix = prefix_unparsable_share(done[0]["records"], root)
        untraced = [p for p in done if not p["traced"]]
        med = statistics.median
        if trace:
            per_pass = [
                layer_metrics([
                    path for path in (bench.path(f"spans-{part}-{p['index']}.tsv") for part in ("gen", "res"))
                    if os.path.exists(path)  # absent when the traced command failed
                ])
                for p in done if p["traced"]
            ]
            values = {k: med(m[k] for m in per_pass) for k in per_pass[0]}
            wall_u = med(p["generate_s"] + p["resolve_s"] for p in untraced)
            wall_t = med(p["generate_s"] + p["resolve_s"] - p["dump_s"] for p in done if p["traced"])
            values["trace.overhead_s"] = wall_t - wall_u
            values["trace.overhead_share"] = (wall_t - wall_u) / wall_u
            metrics = {k: _metric(values[k], unit) for k, (unit, _) in PER_LAYER.items()}
            last = max(p["index"] for p in done if p["traced"])
            for part in ("gen", "res"):
                spans = bench.path(f"spans-{part}-{last}.tsv")
                if os.path.exists(spans):
                    shutil.copyfile(spans, os.path.join(root, OUT_DIR, f"spans-{workload.name}-{part}.tsv"))
        else:
            values = {
                "setup_s": med(setup),
                "generate_examples_per_s": med(checked["examples"] / p["generate_s"] for p in done),
                "resolve_records_per_s": med(p["outcome"]["records"] / p["resolve_s"] for p in done),
                "peak_rss_mb": med(p["generate_peak_rss_kb"] for p in done) / 1024,
            }
            metrics = {k: _metric(values[k], unit) for k, (unit, _) in END_TO_END.items()}
    finally:
        bench.close()
    readings = {
        "failed_share": checked["failed"] / checked["attempted"],
        "prefix_unparsable_share": prefix["share"],
        "prefix_states_judged": prefix["judged"],
    }
    return {
        "provenance": {
            **corpus.provenance,
            "seconds": seconds,
            "trace": int(trace),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "setup_repeats": 0 if trace else SETUP_REPEATS,
        },
        "correct": not bench.problems,
        "problems": bench.problems,
        "checked": checked,
        "readings": readings,
        "passes": [{k: v for k, v in p.items() if k not in ("records", "resolved")} for p in done],
        "setup_runs_s": setup,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="override the corpus size (self-test only)")
    ns = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lintseq", "cli.py")):
        print("perfbench: run from the root of a lintseq checkout (src/lintseq missing)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    result = run(WORKLOADS[ns.workload], ns.seed, ns.seconds, bool(ns.trace), root, ns.size)
    name = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    _write_json(os.path.join(root, OUT_DIR, name), result)
    checked, readings = result["checked"], result["readings"]
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for seed, sha in checked["records_sha256"].items():
        print(f"records_sha256 {sha} (generate --seed {seed})")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"failed_share {readings['failed_share']:.6f} share ({checked['failed']}/{checked['attempted']})")
    print(
        f"prefix_unparsable_share {readings['prefix_unparsable_share']:.6f} share "
        f"({readings['prefix_states_judged']} states judged; a reading, not a gate)"
    )
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
