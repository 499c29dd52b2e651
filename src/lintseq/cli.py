"""Command-line surface tying the pipeline together.

Data goes to stdout (or ``--output``); progress, skips, and error
records go to stderr so outputs stay pipeable.  Exit status: 0 success,
1 fatal error (with a single-line JSON error record on stderr), 2 for a
run that finished but skipped examples or hit per-record conflicts.

Options resolve as flags > ``--config`` file > built-in defaults.  The
config file is a single JSON object using the flag names with
underscores (``{"samples": 3, "skip_dirty": true}``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Iterator, Sequence

from .corpus import (
    CorpusError,
    EditSequenceRecord,
    deduplicate,
    dump_records,
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


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text:
        return {}
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a single JSON object")
    return obj


def _opt(ns: argparse.Namespace, config: dict, key: str, default):
    value = getattr(ns, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _require(value, flag: str):
    if value in (None, ""):
        raise ValueError(f"{flag} is required")
    return value


def _linter_spec(ns: argparse.Namespace, config: dict) -> LinterSpec:
    kind = _opt(ns, config, "linter", "builtin")
    command = _opt(ns, config, "linter_cmd", "")
    pattern = _opt(ns, config, "linter_pattern", DEFAULT_FINDING_PATTERN)
    timeout = float(config.get("linter_timeout", 10.0))
    return LinterSpec(
        kind=kind,
        command_template=command,
        finding_pattern=pattern,
        timeout=timeout,
    )


def cmd_generate(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config)
    input_path = _require(_opt(ns, config, "input", None), "--input")
    output = _opt(ns, config, "output", None)
    seed = int(_opt(ns, config, "seed", 0))
    separator = _opt(ns, config, "separator", DEFAULT_SEPARATOR)
    check_separator(separator)
    started = time.monotonic()

    loaded = load_corpus(input_path)
    for lineno, reason in loaded.skipped:
        _progress(f"input line {lineno} skipped: {reason}")
    examples = loaded.examples
    if _opt(ns, config, "dedup", False):
        examples, dropped = deduplicate(examples)
        if dropped:
            _progress(f"dropped {dropped} duplicate examples")
    # lazy: the sampler checks its options on the first step, which emit()
    # takes even for an empty corpus
    results = sample_corpus(
        examples,
        _linter_spec(ns, config),
        mode=_opt(ns, config, "mode", "lintseq"),
        samples_per_example=int(_opt(ns, config, "samples", 5)),
        seed=seed,
        workers=int(_opt(ns, config, "workers", 1)),
        unique_sequences=bool(_opt(ns, config, "unique_sequences", False)),
        skip_dirty=bool(_opt(ns, config, "skip_dirty", False)),
        max_lines=int(_opt(ns, config, "max_lines", DEFAULT_MAX_LINES)),
    )

    skips: list[tuple[str, str]] = []
    seq_count = 0
    edit_total = 0

    def emit() -> Iterator[EditSequenceRecord]:
        nonlocal seq_count, edit_total
        for result in results:
            example = result.example
            if result.skip_reason is not None:
                skips.append((example.id, result.skip_reason))
                _progress(f"skip {example.id}: {result.skip_reason}")
                continue
            for sample_index, sequence in enumerate(result.sequences):
                rendered = tuple(d.rendered for d in diff_states(sequence))
                record = EditSequenceRecord(
                    source_id=example.id,
                    sample_index=sample_index,
                    instruction=example.instruction,
                    program=example.program,
                    edits=rendered,
                    training_text=serialize(rendered, separator),
                    num_edits=len(rendered),
                    seed_path=(seed, result.example_index, sample_index),
                )
                seq_count += 1
                edit_total += record.num_edits
                yield record
            done = result.example_index + 1
            if done % 200 == 0:
                _progress(f"processed {done}/{len(examples)} examples")

    if output:
        write_records(emit(), output)
    else:
        dump_records(emit(), sys.stdout)

    elapsed = time.monotonic() - started
    mean_edits = edit_total / seq_count if seq_count else 0.0
    _progress(
        f"generate: {len(examples) - len(skips)}/{len(examples)} examples, "
        f"{seq_count} sequences, {len(skips)} skipped, "
        f"mean edits {mean_edits:.2f}, {elapsed:.1f}s"
    )
    return 2 if skips else 0


def cmd_resolve(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config)
    input_path = _require(_opt(ns, config, "input", None), "--input")
    output = _opt(ns, config, "output", None)
    separator = _opt(ns, config, "separator", DEFAULT_SEPARATOR)

    total = malformed = conflicts = mismatches = 0

    def rows() -> Iterator[dict]:
        nonlocal total, malformed, conflicts, mismatches
        with open(input_path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                raw = raw.rstrip("\n")
                if not raw.strip():
                    continue
                total += 1
                try:
                    record = EditSequenceRecord.from_json(raw)
                except (CorpusError, ValueError, TypeError) as exc:
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
                    row["error"] = {
                        "kind": outcome.failure.kind,
                        "edit_index": outcome.failure.edit_index,
                        "message": outcome.failure.message,
                    }
                else:
                    row["matches_source"] = restored == record.program
                    if not row["matches_source"]:
                        mismatches += 1
                yield row

    def write_rows(fh) -> None:
        for row in rows():
            fh.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")

    if output:
        with open(output, "w", encoding="utf-8") as fh:
            write_rows(fh)
    else:
        write_rows(sys.stdout)

    _progress(
        f"resolve: {total} records, {malformed} malformed, "
        f"{conflicts} conflicts, {mismatches} mismatches"
    )
    return 2 if malformed or conflicts or mismatches else 0


def cmd_stats(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config)
    input_path = _require(_opt(ns, config, "input", None), "--input")
    stats = dataset_stats(read_records(input_path))
    if _opt(ns, config, "json", False):
        print(json.dumps(stats.to_dict(), ensure_ascii=False, separators=(",", ":")))
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
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    for k, v in values:
        print(f"pass@{k} = {v:.4f}")
    return 0


def cmd_flops(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config)
    tokens = _opt(ns, config, "tokens", None)
    input_path = _opt(ns, config, "input", None)
    if tokens is None and input_path:
        stats = dataset_stats(read_records(input_path))
        ratio = float(_opt(ns, config, "chars_per_token", 4.0))
        tokens = stats.mean_chars_per_training_text / ratio
    if tokens is None:
        tokens = 1.0
    tokens = float(tokens)
    if tokens.is_integer():
        tokens = int(tokens)
    model = FlopsModel(
        n_params=int(_require(_opt(ns, config, "n_params", None), "--n-params")),
        n_layers=int(_require(_opt(ns, config, "n_layers", None), "--n-layers")),
        context=int(_require(_opt(ns, config, "context", None), "--context")),
        avg_tokens_per_sample=tokens,
        samples_per_problem=int(_opt(ns, config, "samples_per_problem", 1)),
        problems=int(_opt(ns, config, "problems", 1)),
    )
    per_token = flops_per_token(model)
    total = total_flops(model)
    if _opt(ns, config, "json", False):
        print(
            json.dumps(
                {"flops_per_token": per_token, "total_flops": total},
                separators=(",", ":"),
            )
        )
        return 0
    print(f"flops per token  {per_token}")
    print(f"total flops      {total}")
    return 0


def cmd_lintcheck(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config)
    input_path = _require(_opt(ns, config, "input", None), "--input")
    spec = _linter_spec(ns, config)
    loaded = load_corpus(input_path)
    for lineno, reason in loaded.skipped:
        _progress(f"input line {lineno} skipped: {reason}")
    report = lint_error_rate((ex.program for ex in loaded.examples), spec)
    if _opt(ns, config, "json", False):
        print(json.dumps(report.to_dict(), ensure_ascii=False, separators=(",", ":")))
        return 0
    print(
        f"checked {report.checked} programs: {report.flagged} with findings "
        f"({report.rate:.1%}), {report.failures} linter failures"
    )
    for code, count in report.per_code.items():
        print(f"  {code}  {count}")
    return 0


def _add_io_flags(p: argparse.ArgumentParser, output: bool = True) -> None:
    p.add_argument("--input", help="input JSONL path")
    if output:
        p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--config", help="JSON config file; flags override it")


def _add_linter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--linter", choices=("builtin", "external"))
    p.add_argument("--linter-cmd", dest="linter_cmd", help="external command with {path}")
    p.add_argument("--linter-pattern", dest="linter_pattern", help="finding regex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lintseq",
        description="Sample linter-guided insertion edit sequences from code corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample edit sequences from a corpus")
    _add_io_flags(p)
    p.add_argument("--mode", choices=("lintseq", "randseq"))
    p.add_argument("--samples", "-s", type=int, help="sequences per example")
    p.add_argument("--seed", type=int)
    _add_linter_flags(p)
    p.add_argument("--workers", type=int)
    p.add_argument("--separator")
    p.add_argument("--dedup", action="store_true", default=None)
    p.add_argument("--unique-sequences", dest="unique_sequences", action="store_true", default=None)
    p.add_argument("--skip-dirty", dest="skip_dirty", action="store_true", default=None)
    p.add_argument("--max-lines", dest="max_lines", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("resolve", help="re-materialize programs from records")
    _add_io_flags(p)
    p.add_argument("--separator")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("stats", help="dataset statistics for a records file")
    _add_io_flags(p, output=False)
    p.add_argument("--json", action="store_true", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("passk", help="unbiased pass@k from n samples with c correct")
    p.add_argument("n", type=int)
    p.add_argument("c", type=int)
    p.add_argument("k", type=int, nargs="+")
    p.add_argument("--json", action="store_true", default=False)
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
        help="with --input: derive tokens from training-text chars",
    )
    p.add_argument("--samples-per-problem", dest="samples_per_problem", type=int)
    p.add_argument("--problems", type=int)
    p.add_argument("--json", action="store_true", default=None)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("lintcheck", help="lint error rate over a program set")
    _add_io_flags(p, output=False)
    _add_linter_flags(p)
    p.add_argument("--json", action="store_true", default=None)
    p.set_defaults(func=cmd_lintcheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (CorpusError, DiffError, LintError, OSError, ValueError) as exc:
        record = {"error": str(exc), "kind": type(exc).__name__}
        print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
