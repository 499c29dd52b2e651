"""Synthetic edit-sequence generation for code corpora.

Samples linter-guided chains of insertion edits that rebuild a program
line by line, serializes them for training, and resolves them back.
"""

from .corpus import (
    CorpusError,
    EditSequenceRecord,
    SourceExample,
    deduplicate,
    load_corpus,
    read_records,
    write_records,
)
from .diffkit import (
    BodyMismatch,
    DiffError,
    EditDiff,
    Hunk,
    MalformedDecorator,
    TruncatedHunk,
    diff_states,
    parse_diff,
)
from .editcodec import (
    DEFAULT_SEPARATOR,
    ApplyConflict,
    ResolveError,
    ResolveOutcome,
    apply,
    resolve,
    resolve_prefixes,
    resolve_stream,
    serialize,
    split_serialized,
)
from .lint import (
    LintError,
    LinterSpec,
    LinterTimeout,
    check,
)
from .metrics import (
    DatasetStats,
    FlopsModel,
    LintErrorRate,
    dataset_stats,
    flops_per_token,
    lint_error_rate,
    pass_at_k,
    total_flops,
)
from .sampler import (
    ExampleResult,
    SamplerError,
    StateSequence,
    backward_sample,
    derive_seed,
    random_sample,
    sample_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "ApplyConflict",
    "BodyMismatch",
    "CorpusError",
    "DEFAULT_SEPARATOR",
    "DatasetStats",
    "DiffError",
    "EditDiff",
    "EditSequenceRecord",
    "ExampleResult",
    "FlopsModel",
    "Hunk",
    "LintError",
    "LintErrorRate",
    "LinterSpec",
    "LinterTimeout",
    "MalformedDecorator",
    "ResolveError",
    "ResolveOutcome",
    "SamplerError",
    "SourceExample",
    "StateSequence",
    "TruncatedHunk",
    "apply",
    "backward_sample",
    "check",
    "dataset_stats",
    "deduplicate",
    "derive_seed",
    "diff_states",
    "flops_per_token",
    "lint_error_rate",
    "load_corpus",
    "parse_diff",
    "pass_at_k",
    "random_sample",
    "read_records",
    "resolve",
    "resolve_prefixes",
    "resolve_stream",
    "sample_corpus",
    "serialize",
    "split_serialized",
    "total_flops",
    "write_records",
    "__version__",
]
