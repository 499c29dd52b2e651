"""Span tracing of the package's public calls, from outside the package.

``python3 perfbench/tracing.py SPANS_OUT <lintseq CLI arguments...>`` runs
the CLI in this process with a wrapper around each public function listed
in ``TARGETS``.  Each call records one span: name, start, end, parent span
and the id of the example being worked on.  Spans stay in memory and are
written to ``SPANS_OUT`` when the command returns, as one JSON header line
(names, example ids, counters, timings) followed by one tab-separated row
per span: ``name-index start-ns end-ns parent-index example-index``.

A function is patched under every name the package binds it to, so calls
through ``from .x import f`` copies are seen too.  Forked pool workers get
the original functions back, so only the parent side of a pool is traced.
Counters that need a call's result (hunks, record bytes, result sizes) are
taken in ``bench.*`` spans, which no layer's self time includes.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import sys
import time
from typing import Callable

# (span name, module, attribute path, kind); kind "gen" times each next()
TARGETS = (
    ("cli.main", "lintseq.cli", "main", "call"),
    ("cli.cmd_generate", "lintseq.cli", "cmd_generate", "call"),
    ("cli.cmd_resolve", "lintseq.cli", "cmd_resolve", "call"),
    ("corpus.load_corpus", "lintseq.corpus", "load_corpus", "call"),
    ("corpus.write_records", "lintseq.corpus", "write_records", "call"),
    ("corpus.to_json", "lintseq.corpus", "EditSequenceRecord.to_json", "call"),
    ("corpus.from_json", "lintseq.corpus", "EditSequenceRecord.from_json", "call"),
    ("lint.check_text", "lintseq.lint", "BuiltinLinter.check_text", "call"),
    ("lint.check_subset", "lintseq.lint", "BuiltinLinter.check_subset", "call"),
    ("lint.extra_findings", "lintseq.lint", "extra_findings", "call"),
    ("pycheck.check_lines", "lintseq.pycheck", "check_lines", "call"),
    ("pycheck.Analysis", "lintseq.pycheck", "Analysis.__init__", "call"),
    ("pycheck.flow", "lintseq.pycheck", "flow", "call"),
    ("pycheck.scan_line", "lintseq.pycheck", "scan_line", "call"),
    ("sampler.sample_corpus", "lintseq.sampler", "sample_corpus", "gen"),
    ("sampler.backward_sample", "lintseq.sampler", "backward_sample", "call"),
    ("sampler.random_sample", "lintseq.sampler", "random_sample", "call"),
    ("diffkit.diff_states", "lintseq.diffkit", "diff_states", "call"),
    ("editcodec.serialize", "lintseq.editcodec", "serialize", "call"),
    ("editcodec.resolve_stream", "lintseq.editcodec", "resolve_stream", "call"),
    ("editcodec.apply", "lintseq.editcodec", "apply", "call"),
    # defined in diffkit; the pipeline reaches it only through editcodec
    ("editcodec.parse_diff", "lintseq.editcodec", "parse_diff", "call"),
)

COUNTERS = (
    "examples", "sequences", "edits", "source_lines", "sequence_lines", "hunks", "record_bytes",
    "state_text_bytes", "result_pickle_bytes_sum", "result_pickle_bytes_max",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.example = -1  # index into example_ids
        self.example_ids: list[str] = []
        self._example_index: dict[str, int] = {}
        self._program_example: dict[int, int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _set_example(self, example_id) -> None:
        if not isinstance(example_id, str):
            return
        idx = self._example_index.get(example_id)
        if idx is None:
            idx = self._example_index[example_id] = len(self.example_ids)
            self.example_ids.append(example_id)
        self.example = idx

    def _observed(self, sid: int, observe: Callable, value) -> None:
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        t0 = time.perf_counter_ns()
        observe(value)
        spans[idx] = (sid, t0, time.perf_counter_ns(), parent, self.example)

    def _wrap_call(self, name: str, fn: Callable, before, after) -> Callable:
        sid = self._name(name)
        bench_sid = self._name("bench." + name) if after else -1
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            example = self.example
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent, example)
            if after is not None:
                self._observed(bench_sid, after, result)
            return result

        return traced

    def _timed_items(self, name: str, after=None) -> Callable:
        """Generator factory: one span per next() on the iterator it wraps.

        The last next(), which only finds the iterator exhausted (and, for
        a pool, waits for its shutdown), is named ``<name>.end``.
        """
        sid = self._name(name)
        end_sid = self._name(name + ".end")
        bench_sid = self._name("bench." + name) if after else -1
        spans, stack = self.spans, self.stack

        def items(it):
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                name_id = sid
                t0 = time.perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    name_id = end_sid
                    return
                finally:
                    t1 = time.perf_counter_ns()
                    stack.pop()
                    spans[idx] = (name_id, t0, t1, parent, self.example)
                if after is not None:
                    self._observed(bench_sid, after, item)
                yield item

        return items

    def _wrap_gen(self, name: str, fn: Callable, after) -> Callable:
        items = self._timed_items(name + ".next", after)

        def traced(*args, **kwargs):
            return items(fn(*args, **kwargs))

        return traced

    # -- observers -----------------------------------------------------

    def _after_load(self, loaded) -> None:
        examples = getattr(loaded, "examples", None)
        if isinstance(examples, (list, tuple)):  # never consume a lazy reader
            for ex in examples:
                self._set_example(ex.id)
                self._program_example[id(ex.program)] = self.example
            self.example = -1

    def _before_sample(self, args: tuple) -> tuple:
        if args:
            self.example = self._program_example.get(id(args[0]), self.example)
        return args

    def _before_write(self, args: tuple) -> tuple:
        # the records iterator is the CLI's own loop (sampling, diffing,
        # encoding); time it as cli so write_records keeps only its I/O
        if args:
            args = (self._records_items(iter(args[0])), *args[1:])
        return args

    def _after_result(self, result) -> None:
        c = self.counters
        example = result.example
        self._set_example(example.id)
        c["examples"] += 1
        lines = len(example.program.splitlines())
        c["source_lines"] += lines
        c["sequence_lines"] += lines * len(result.sequences)
        size = len(pickle.dumps(result))
        c["result_pickle_bytes_sum"] += size
        c["result_pickle_bytes_max"] = max(c["result_pickle_bytes_max"], size)
        for seq in result.sequences:
            c["sequences"] += 1
            c["edits"] += len(seq.states) - 1
            for state in seq.states:
                text = getattr(state, "text", None)
                if isinstance(text, str):
                    c["state_text_bytes"] += len(text.encode("utf-8"))

    def _after_diff(self, diffs) -> None:
        self.counters["hunks"] += sum(len(d.hunks) for d in diffs)

    def _after_to_json(self, line) -> None:
        self.counters["record_bytes"] += len(line.encode("utf-8")) + 1

    def _after_from_json(self, record) -> None:
        self._set_example(getattr(record, "source_id", None))

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        self._records_items = self._timed_items("cli.records.next")
        hooks = {
            "corpus.write_records": (self._before_write, None),
            "corpus.load_corpus": (None, self._after_load),
            "corpus.to_json": (None, self._after_to_json),
            "corpus.from_json": (None, self._after_from_json),
            "sampler.backward_sample": (self._before_sample, None),
            "sampler.random_sample": (self._before_sample, None),
            "diffkit.diff_states": (None, self._after_diff),
        }
        modules = [m for n, m in sys.modules.items() if n == "lintseq" or n.startswith("lintseq.")]
        for name, modname, path, kind in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if kind == "gen":
                wrapped = self._wrap_gen(name, fn, self._after_result)
            else:
                before, after = hooks.get(name, (None, None))
                wrapped = self._wrap_call(name, fn, before, after)
            if isinstance(owner, type):
                self._patch(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapped)
        os.register_at_fork(after_in_child=self.uninstall)

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        header = {
            "names": self.names,
            "examples": self.example_ids,
            "counters": self.counters,
            "missing": self.missing,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            # every span has ended by now; row i is span i, which parents refer to
            fh.writelines(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\n" for s in self.spans)


def load(path: str) -> tuple[dict, list[tuple[int, int, int, int, int]]]:
    """Read a spans file back: (header, rows)."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = [tuple(map(int, line.split("\t"))) for line in fh]
    return header, rows


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import lintseq.cli

    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    code = lintseq.cli.main(cli_args)
    main_s = time.perf_counter() - started
    tracer.uninstall()
    dump_started = time.perf_counter()
    tracer.dump(out, {"main_s": main_s, "exit_code": code})
    sys.stderr.write(f"perfbench-trace-dump-s {time.perf_counter() - dump_started:.6f}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
