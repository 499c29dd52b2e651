"""Command-line surface tying the pipeline together.

Data goes to stdout (or ``--output``), UTF-8 under any locale; progress,
skips, and error records go to stderr so outputs stay pipeable.  Exit
status: 0 success, 1 fatal error (with a single-line JSON error record on
stderr), 2 for a run that finished but skipped examples or hit
per-record conflicts.

Each option is declared once, in ``build_parser``: its flag, type and
built-in default.  A ``--config`` file's values become the chosen
command's parser defaults, so argparse itself resolves flags > config
file > built-in defaults.  The config file is a single JSON object using
the flag names with underscores (``{"samples": 3, "skip_dirty": true}``)
and each flag's JSON type: a switch is ``true`` or ``false``, a count an
integer.  A key that names no flag of any command is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from typing import Iterable, Iterator, Sequence

from .corpus import (
    CorpusError,
    EditSequenceRecord,
    SourceExample,
    _compact_json,
    _parse_json,
    atomic_output,
    deduplicate,
    dump_records,
    jsonl_lines,
    load_corpus,
    read_records,
    write_records,
)
from .diffkit import DiffError, diff_states
from .editcodec import (
    DEFAULT_SEPARATOR,
    check_separator,
    resolve_stream,
    restore_final_newline,
    serialize,
)
from .lint import DEFAULT_FINDING_PATTERN, LintError, LinterSpec
from .metrics import (
    FlopsModel,
    dataset_stats,
    flops_per_token,
    lint_error_rate,
    pass_at_k,
    total_flops,
)
from .sampler import DEFAULT_MAX_LINES, sample_corpus


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _load_config(path: str, commands: Iterable[argparse.ArgumentParser]) -> dict:
    """The config file's object, each key checked against a flag of any command.

    A switch takes a bool, a ``type=int`` flag an int, a ``type=float`` flag
    an int or float, any other flag a string.  ``type()`` matches exactly, so
    a bool is neither an integer nor a number; and as argparse runs ``type``
    on string defaults only, it converts no config value.
    """
    kinds = {
        a.dest: (bool,) if a.nargs == 0 else {int: (int,), float: (int, float)}.get(a.type, (str,))
        for command in commands
        for a in command._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    with open(path, encoding="utf-8-sig") as fh:  # as jsonl_lines: a BOM is dropped
        text = fh.read().strip()
    if not text:
        return {}
    obj = _parse_json(text)
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a single JSON object")
    for key, value in obj.items():
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r}")
        if type(value) not in kinds[key]:
            want = " or ".join(t.__name__ for t in kinds[key])
            raise ValueError(f"config key {key!r} must be {want}, not {json.dumps(value)}")
    return obj


def _require(value, flag: str):
    if value in (None, ""):
        raise ValueError(f"{flag} is required")
    return value


def _linter_spec(ns: argparse.Namespace) -> LinterSpec:
    return LinterSpec(
        kind=ns.linter,
        command_template=ns.linter_cmd,
        finding_pattern=ns.linter_pattern,
        timeout=_finite_positive(ns.linter_timeout, "--linter-timeout"),
    )


class _Examples:
    """A corpus's examples, read lazily on each iteration.

    Each malformed line is reported as it is read.  Only counts are kept:
    ``loaded`` examples and ``bad_lines``, so memory stays flat in corpus
    size.
    """

    def __init__(self, path: str):
        self.path = path
        self.loaded = self.bad_lines = 0

    def __iter__(self) -> Iterator[SourceExample]:
        for item in load_corpus(self.path):
            if isinstance(item, SourceExample):
                self.loaded += 1
                yield item
            else:
                lineno, reason = item
                self.bad_lines += 1
                _progress(f"input line {lineno} skipped: {reason}")


def cmd_generate(ns: argparse.Namespace) -> int:
    input_path = _require(ns.input, "--input")
    seed, separator = ns.seed, ns.separator
    check_separator(separator)
    started = time.monotonic()
    examples = _Examples(input_path)

    # lazy: the sampler checks its options on the first step, which emit()
    # takes even for an empty corpus
    results = sample_corpus(
        deduplicate(examples) if ns.dedup else examples,
        _linter_spec(ns),
        mode=ns.mode,
        samples_per_example=ns.samples,
        seed=seed,
        workers=ns.workers,
        unique_sequences=ns.unique_sequences,
        skip_dirty=ns.skip_dirty,
        max_lines=ns.max_lines,
    )

    total = skipped = seq_count = edit_total = 0

    def emit() -> Iterator[EditSequenceRecord]:
        nonlocal total, skipped, seq_count, edit_total
        for result in results:
            total += 1
            example = result.example
            reason = result.skip_reason
            # every record of the example is built before any is written
            records = []
            for sample_index, sequence in enumerate(result.sequences):
                rendered = tuple(d.rendered for d in diff_states(sequence))
                try:
                    training_text = serialize(rendered, separator)
                except ValueError as exc:  # the separator is an edit body line
                    reason, records = str(exc), []
                    break
                records.append(EditSequenceRecord(
                    source_id=example.id,
                    sample_index=sample_index,
                    instruction=example.instruction,
                    program=example.program,
                    edits=rendered,
                    training_text=training_text,
                    seed_path=(seed, result.example_index, sample_index),
                ))
            if reason is not None:
                skipped += 1
                _progress(f"skip {example.id}: {reason}")
                if result.traceback is not None:
                    _progress(result.traceback.rstrip("\n"))
            for record in records:
                seq_count += 1
                edit_total += record.num_edits
                yield record
            if total % 200 == 0:
                _progress(f"processed {total} examples")

    if ns.output:
        write_records(emit(), ns.output)
    else:
        dump_records(emit(), sys.stdout)

    if ns.dedup and examples.loaded > total:
        _progress(f"dropped {examples.loaded - total} duplicate examples")
    elapsed = time.monotonic() - started
    mean_edits = edit_total / seq_count if seq_count else 0.0
    _progress(
        f"generate: {total - skipped}/{total} examples, "
        f"{seq_count} sequences, {skipped} skipped, "
        f"mean edits {mean_edits:.2f}, {elapsed:.1f}s"
    )
    return 2 if skipped or examples.bad_lines else 0


def cmd_resolve(ns: argparse.Namespace) -> int:
    input_path = _require(ns.input, "--input")
    separator = ns.separator
    check_separator(separator)

    total = malformed = conflicts = mismatches = 0

    def rows() -> Iterator[dict]:
        nonlocal total, malformed, conflicts, mismatches
        for lineno, raw in jsonl_lines(input_path):
            total += 1
            try:
                record = EditSequenceRecord.from_json(raw)
            except (CorpusError, ValueError) as exc:
                malformed += 1
                yield {
                    "line": lineno,
                    "ok": False,
                    "error": {"kind": "MalformedRecord", "message": str(exc)},
                }
                continue
            outcome = resolve_stream(record.training_text, separator)
            restored = restore_final_newline(outcome.program, record.program)
            row: dict = {
                "line": lineno,
                "source_id": record.source_id,
                "sample_index": record.sample_index,
                "ok": outcome.ok,
                "program": restored,
            }
            if not outcome.ok:
                conflicts += 1
                row["applied"] = outcome.applied
                failure = outcome.failure
                row["error"] = {
                    "kind": type(failure.cause).__name__,
                    "edit_index": failure.edit_index,
                    "message": str(failure.cause),
                }
            else:
                row["matches_source"] = restored == record.program
                if not row["matches_source"]:
                    mismatches += 1
            yield row

    with atomic_output(ns.output) if ns.output else nullcontext(sys.stdout) as fh:
        for row in rows():
            fh.write(_compact_json(row))
            fh.write("\n")

    _progress(
        f"resolve: {total} records, {malformed} malformed, "
        f"{conflicts} conflicts, {mismatches} mismatches"
    )
    return 2 if malformed or conflicts or mismatches else 0


def cmd_stats(ns: argparse.Namespace) -> int:
    stats = dataset_stats(read_records(_require(ns.input, "--input")))
    if ns.json:
        print(_compact_json(stats.to_dict()))
        return 0
    print(f"examples                 {stats.example_count}")
    print(f"sequences                {stats.sequence_count}")
    print(f"mean lines per example   {stats.mean_lines_per_example:.2f}")
    print(f"mean edits per sequence  {stats.mean_edits_per_sequence:.2f}")
    print(f"mean chars per text      {stats.mean_chars_per_training_text:.2f}")
    return 0


def cmd_passk(ns: argparse.Namespace) -> int:
    values = [(k, pass_at_k(ns.n, ns.c, k)) for k in ns.k]
    if ns.json:
        payload = {
            "n": ns.n,
            "c": ns.c,
            "results": [{"k": k, "pass_at_k": v} for k, v in values],
        }
        print(_compact_json(payload))
        return 0
    for k, v in values:
        print(f"pass@{k} = {v:.4f}")
    return 0


def _finite_positive(value: float, flag: str) -> float:
    try:
        value = float(value)
    except OverflowError:  # a config int too large to convert to float
        value = math.inf
    if not 0 < value < math.inf:
        raise ValueError(f"{flag} must be a finite positive number, not {value!r}")
    return value


def cmd_flops(ns: argparse.Namespace) -> int:
    ratio = _finite_positive(ns.chars_per_token, "--chars-per-token")
    if ns.tokens is not None:
        tokens = _finite_positive(ns.tokens, "--tokens")
    elif ns.input:
        tokens = dataset_stats(read_records(ns.input)).mean_chars_per_training_text / ratio
    else:
        tokens = 1.0
    if tokens.is_integer():
        tokens = int(tokens)
    model = FlopsModel(
        n_params=_require(ns.n_params, "--n-params"),
        n_layers=_require(ns.n_layers, "--n-layers"),
        context=_require(ns.context, "--context"),
        avg_tokens_per_sample=tokens,
        samples_per_problem=ns.samples_per_problem,
        problems=ns.problems,
    )
    per_token = flops_per_token(model)
    total = total_flops(model)
    if ns.json:
        print(_compact_json({"flops_per_token": per_token, "total_flops": total}))
        return 0
    print(f"flops per token  {per_token}")
    print(f"total flops      {total}")
    return 0


def cmd_lintcheck(ns: argparse.Namespace) -> int:
    input_path = _require(ns.input, "--input")
    examples = _Examples(input_path)
    report = lint_error_rate((ex.program for ex in examples), _linter_spec(ns))
    status = 2 if examples.bad_lines else 0
    if ns.json:
        print(_compact_json(report.to_dict()))
        return status
    print(
        f"checked {report.checked} programs: {report.flagged} with findings "
        f"({report.rate:.1%}), {report.failures} linter failures"
    )
    for code, count in report.per_code.items():
        print(f"  {code}  {count}")
    return status


def _add_io_flags(p: argparse.ArgumentParser, output: bool = True) -> None:
    p.add_argument("--input", help="input JSONL path")
    if output:
        p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--config", help="JSON config file; flags override it")


def _add_linter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--linter", choices=("builtin", "external"), default="builtin")
    p.add_argument(
        "--linter-cmd", dest="linter_cmd", default="", help="external command with {path}"
    )
    p.add_argument(
        "--linter-pattern", dest="linter_pattern", default=DEFAULT_FINDING_PATTERN,
        help="finding regex",
    )
    p.add_argument(
        "--linter-timeout", dest="linter_timeout", type=float, default=LinterSpec.timeout,
        help="seconds an external linter may run on one state",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lintseq",
        description="Sample linter-guided insertion edit sequences from code corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample edit sequences from a corpus")
    _add_io_flags(p)
    p.add_argument("--mode", choices=("lintseq", "randseq"), default="lintseq")
    p.add_argument("--samples", "-s", type=int, default=5, help="sequences per example")
    p.add_argument("--seed", type=int, default=0)
    _add_linter_flags(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--separator", default=DEFAULT_SEPARATOR)
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--unique-sequences", dest="unique_sequences", action="store_true")
    p.add_argument("--skip-dirty", dest="skip_dirty", action="store_true")
    p.add_argument("--max-lines", dest="max_lines", type=int, default=DEFAULT_MAX_LINES)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("resolve", help="re-materialize programs from records")
    _add_io_flags(p)
    p.add_argument("--separator", default=DEFAULT_SEPARATOR)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("stats", help="dataset statistics for a records file")
    _add_io_flags(p, output=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("passk", help="unbiased pass@k from n samples with c correct")
    p.add_argument("n", type=int)
    p.add_argument("c", type=int)
    p.add_argument("k", type=int, nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_passk)

    p = sub.add_parser("flops", help="inference cost from model shape and sampling plan")
    _add_io_flags(p, output=False)
    p.add_argument("--n-params", dest="n_params", type=int)
    p.add_argument("--n-layers", dest="n_layers", type=int)
    p.add_argument("--context", type=int)
    p.add_argument("--tokens", type=float, help="average tokens per sample")
    p.add_argument(
        "--chars-per-token",
        dest="chars_per_token",
        type=float,
        default=4.0,
        help="with --input: derive tokens from training-text chars",
    )
    p.add_argument("--samples-per-problem", dest="samples_per_problem", type=int, default=1)
    p.add_argument("--problems", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("lintcheck", help="lint error rate over a program set")
    _add_io_flags(p, output=False)
    _add_linter_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lintcheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if getattr(ns, "config", None):
            # a config value becomes the command's default, so a flag beats it
            commands = next(a.choices for a in parser._actions if a.dest == "command")
            config = _load_config(ns.config, commands.values())
            commands[ns.command].set_defaults(**config)
            ns = parser.parse_args(argv)
        return ns.func(ns)
    except (CorpusError, DiffError, LintError, OSError, ValueError) as exc:
        record = {"error": str(exc), "kind": type(exc).__name__}
        print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
        return 1


def run() -> None:
    # stdout data is UTF-8 whatever the locale, as --output files are
    if sys.stdout is not None:  # None when the process starts with fd 1 closed
        sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    run()
