"""Run configuration: defaults, config-file loading, flag resolution.

Precedence is command-line flags over config-file values over built-in
defaults. The resolved configuration is echoed as deterministic JSON
(sorted keys, no timestamps) next to every artifact a command writes,
so any run can be reproduced from its output directory alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import (INTEGER, NUMBER, STRING, SchemaError, check_fields, json_text,
                     parse_object, read_text, write_text)

RESOLVED_CONFIG_NAME = "resolved-config.json"
# Defaults of the modules that read them. They live here so that reading
# the configuration loads none of those modules.
DEFAULT_SEGMENT_LENGTH = 2000
DEFAULT_OVERLAP = 400
DEFAULT_DIMENSION = 1536
DEFAULT_EMBEDDING_MODEL = "text-embedding-ada-002"
DEFAULT_TOP_K = 5
DEFAULT_THRESHOLD = 0.8
SUMMARIZATION_TOKEN_BUDGET = 100_000
CLASSIFICATION_TOKEN_BUDGET = 50_000
DEFAULT_FALLBACK_THRESHOLD = 0.5
DEFAULT_SUMMARIZATION_MODEL = "gpt-4o"
DEFAULT_CLASSIFICATION_MODEL = "gpt-4o-mini"
# Largest embedding dimension: .advec headers and hash gram entries (2 *
# coordinate + 2) hold it in 32 bits; 64 query vectors take 32 MiB.
MAX_DIMENSION = 65_536
# Integer fields with a lower bound, and the bound.
_MINIMUMS = {"segment_length": 1, "top_k": 1, "tuning_trials": 0,
             "tuning_folds": 2, "n_seeds": 1, "jobs": 1, "summarization_budget": 1,
             "classification_budget": 1, "n_pos": 1, "n_neg": 1, "seed": 0, "seed_base": 0}
_BACKEND = (lambda v: v in ("mock", "remote"), "mock or remote")
# The values each field may take beyond its type's.
_LIMITS = {
    "embedding_backend": _BACKEND, "llm_backend": _BACKEND,
    **{name: (lambda v, least=least: v >= least, f">= {least}")
       for name, least in _MINIMUMS.items()},
    "embedding_dim": (lambda v: 1 <= v <= MAX_DIMENSION, f"in [1, {MAX_DIMENSION}]"),
    "threshold": (lambda v: -1.0 <= v <= 1.0, "in [-1, 1]"),
    "fallback_threshold": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "split_fraction": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
}


@dataclass(frozen=True)
class RunConfig:
    # artifact paths
    dataset: str | None = None
    schema: str | None = None
    corpus: str | None = None
    store: str | None = None
    model: str | None = None
    # backend selection per service
    embedding_backend: str = "mock"  # mock | remote
    llm_backend: str = "mock"  # mock | remote
    embedding_url: str | None = None
    embedding_model: str = DEFAULT_EMBEDDING_MODEL
    embedding_dim: int = DEFAULT_DIMENSION
    llm_url: str | None = None
    summarization_model: str = DEFAULT_SUMMARIZATION_MODEL
    classification_model: str = DEFAULT_CLASSIFICATION_MODEL
    # chunking
    segment_length: int = DEFAULT_SEGMENT_LENGTH
    overlap: int = DEFAULT_OVERLAP
    # retrieval
    top_k: int = DEFAULT_TOP_K
    threshold: float = DEFAULT_THRESHOLD
    # agent budgets
    summarization_budget: int = SUMMARIZATION_TOKEN_BUDGET
    classification_budget: int = CLASSIFICATION_TOKEN_BUDGET
    fallback_threshold: float = DEFAULT_FALLBACK_THRESHOLD
    # protocol
    split_fraction: float = 0.75
    n_pos: int = 15
    n_neg: int = 15
    n_features: int = 20
    tuning_trials: int = 0
    tuning_folds: int = 3
    n_seeds: int = 10
    seed_base: int = 0
    seed: int = 0
    jobs: int = 1
    tolerate_failures: bool = False

    def validate(self) -> None:
        check_fields(vars(self), _LIMITS, "config", SchemaError)
        for service in ("embedding", "llm"):
            if (getattr(self, f"{service}_backend") == "remote"
                    and not getattr(self, f"{service}_url")):
                raise SchemaError(
                    f"{service}_backend=remote requires {service}_url")
        if not 0 <= self.overlap < self.segment_length:
            raise SchemaError(
                f"overlap must lie in [0, segment_length), got {self.overlap}")


# Each field's declared type, as a string (the module postpones annotations).
# The CLI derives each flag's type from it and config files are checked
# against it.
FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# Per field type: the shape a config-file value must have.
_SHAPES = {"str": STRING, "int": INTEGER, "float": NUMBER,
           "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
           "bool": (lambda v: isinstance(v, bool), "true or false")}


def _check(values, source) -> dict:
    """values, once checked for wrong JSON types, unknown keys and values
    out of their range; errors name source (the file, or flags)."""
    check_fields(values, {key: _SHAPES[kind] for key, kind in FIELD_TYPES.items()
                          if key in values}, source, SchemaError)
    unknown = sorted(set(values) - set(FIELD_TYPES))
    if unknown:
        raise SchemaError(f"{source}: unknown config keys {unknown}")
    check_fields(values, {key: limit for key, limit in _LIMITS.items()
                          if key in values}, source, SchemaError)
    return values


def load_config_file(path, command: str) -> dict:
    """JSON object of RunConfig keys; unknown keys and values of the
    wrong type are rejected. A ``command`` key, which every
    resolved-config.json carries, must name ``command``, the subcommand
    reading the file, so a run can be replayed from the configuration it
    echoed."""
    values = parse_object(read_text(path), path, SchemaError)
    written_by = values.pop("command", command)
    if written_by != command:
        raise SchemaError(f"{path}: the configuration of the {written_by!r} command "
                          f"cannot configure {command!r}")
    return _check(values, path)


def resolve_config(file_values: dict | None = None, **flag_values) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win).

    Flag values of None mean "not given" and never override.
    """
    merged = _check(dict(file_values or {}), "config")
    merged.update(_check({key: value for key, value in flag_values.items()
                          if value is not None}, "flags"))
    config = RunConfig(**merged)
    config.validate()
    return config


def write_resolved_config(config: RunConfig, directory, command: str) -> None:
    """Echo the fully-resolved configuration next to the artifacts."""
    write_text(Path(directory) / RESOLVED_CONFIG_NAME,
               json_text({"command": command, **asdict(config)}))
