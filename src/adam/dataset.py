"""Tabular sample ingestion, grouped splitting, and cohort drawing.

A dataset is a CSV of per-visit samples: one row per stool sample with
a binary label, a study (participant) id, optional visit number,
clinical covariates, and taxon relative abundances. A JSON schema maps
column names to roles so arbitrary CSV layouts can be ingested.

Feature order is deterministic: clinical columns sorted
lexicographically, then taxon columns sorted lexicographically.
Missing clinical values become NaN (to be median-imputed from training
data only); missing taxon values are treated as zero abundance.

Splitting is grouped by study id so no participant appears on both
sides, and stratified by each study's majority label.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (OBJECT, AlignmentError, CohortError, EmptyInputError, SchemaError,
                     StratificationError, check_fields, is_file_name, parse_object, read_csv,
                     read_text)

ROLES = ("sample_id", "study_id", "visit", "label", "clinical", "taxon", "ignore")
_MISSING_TOKENS = {"", "na", "nan", "null", "none"}
_PLAIN_NUMBERS = re.compile(r"[0-9.eE+-]*")
_TRUE_TOKENS = {"1", "yes", "true", "y"}
_FALSE_TOKENS = {"0", "no", "false", "n"}


class Sample(NamedTuple):
    """One per-visit observation; value tuples align to the owning set's names."""

    sample_id: str
    study_id: str
    visit_index: int
    label: int
    clinical: tuple[float, ...]
    taxa: tuple[float, ...]


@dataclass(frozen=True)
class SampleSet:
    """An ordered, immutable collection of samples on a shared feature axis."""

    clinical_names: tuple[str, ...]
    taxon_names: tuple[str, ...]
    samples: tuple[Sample, ...]

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.clinical_names + self.taxon_names

    def feature_matrix(self) -> np.ndarray:
        """(n_samples, n_features) float matrix, clinical block then taxa block."""
        return np.array([s.clinical + s.taxa for s in self.samples], dtype=float)

    def taxa_matrix(self) -> np.ndarray:
        return np.array([s.taxa for s in self.samples], dtype=float)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=int)

    def study_ids(self) -> tuple[str, ...]:
        return tuple(sorted({s.study_id for s in self.samples}))

    def subset(self, sample_ids) -> "SampleSet":
        """Samples with the given ids, in the order the ids are given."""
        by_id = {s.sample_id: s for s in self.samples}
        missing = [sid for sid in sample_ids if sid not in by_id]
        if missing:
            raise KeyError(f"unknown sample ids: {missing[:5]}")
        return SampleSet(self.clinical_names, self.taxon_names,
                         tuple(by_id[sid] for sid in sample_ids))

    def restrict_to_studies(self, study_ids) -> "SampleSet":
        """Samples whose study is in study_ids, preserving original order."""
        wanted = set(study_ids)
        return SampleSet(self.clinical_names, self.taxon_names,
                         tuple(s for s in self.samples if s.study_id in wanted))

    def prior_visits(self, sample: Sample) -> tuple[Sample, ...]:
        """Earlier visits of the same study, in ascending visit order: the
        history the agents read. Of samples sharing a visit index, the
        lowest sample id stands for the visit."""
        earlier = [s for s in self.samples
                   if s.study_id == sample.study_id and s.visit_index < sample.visit_index]
        history: dict[int, Sample] = {}
        for s in sorted(earlier, key=lambda s: (s.visit_index, s.sample_id)):
            history.setdefault(s.visit_index, s)
        return tuple(history.values())

    def model_inputs(self, names, medians) -> np.ndarray:
        """Model input per sample: the named columns, in the order named,
        with each missing value filled by ``impute`` from medians, which
        maps each name to its training median."""
        column = {name: i for i, name in enumerate(self.feature_names)}  # a taxon shadows a clinical name
        missing = [n for n in names if n not in column]
        if missing:
            raise AlignmentError(f"model feature {missing[0]!r} is not a column of the dataset")
        values = np.empty((len(self.samples), len(self.feature_names)))
        for row, sample in zip(values, self.samples):
            if len(sample.clinical) + len(sample.taxa) != len(row):
                raise AlignmentError(
                    f"sample {sample.sample_id} does not align with the dataset's columns")
            row[:] = sample.clinical + sample.taxa
        return impute(values[:, [column[n] for n in names]], [medians[n] for n in names])


class Schema(NamedTuple):
    """Column-to-role mapping for CSV ingestion."""

    columns: dict[str, str]
    default_role: str | None = None

    def role_of(self, column: str, where="dataset") -> str:
        if column in self.columns:
            return self.columns[column]
        if self.default_role is not None:
            return self.default_role
        raise SchemaError(f"{where}: column {column!r} has no role and no default_role")


_ROLE = (lambda v: v in ROLES, "one of " + ", ".join(ROLES))
_SCHEMA_FIELDS = {"columns": OBJECT,
                  "default_role": (lambda v: v is None or v in ROLES, "null or " + _ROLE[1])}


def load_schema(source) -> Schema:
    """Build a Schema from a dict or a JSON file path."""
    if isinstance(source, Schema):
        return source
    where = "schema"
    if isinstance(source, (str, Path)):
        where, source = source, parse_object(read_text(source), source, SchemaError)
    obj = {"default_role": None, **source} if isinstance(source, dict) else source
    check_fields(obj, _SCHEMA_FIELDS, where, SchemaError)
    columns, default_role = obj["columns"], obj["default_role"]
    check_fields(columns, dict.fromkeys(columns, _ROLE), f"{where}: columns",
                 SchemaError)
    # Each id and label role needs one column; the visit role may have none.
    for role in ("sample_id", "study_id", "label", "visit"):
        hits = [c for c, r in columns.items() if r == role]
        if len(hits) > 1 or not hits and role != "visit":
            raise SchemaError(f"{where}: role {role!r} is assigned to {len(hits)} "
                              f"columns {hits}")
    return Schema(columns=dict(columns), default_role=default_role)


def _parse_label(token: str) -> int:
    t = token.strip().lower()
    if t in _TRUE_TOKENS:
        return 1
    if t in _FALSE_TOKENS:
        return 0
    raise ValueError(f"unrecognized label value {token!r}")


def _parse_float(token: str, missing_as: float) -> float:
    t = token.strip().lower()
    if t in _MISSING_TOKENS:
        return missing_as
    if "_" in t:
        # float() reads digit-group underscores: "1_5" would become 15.0
        raise ValueError(f"underscore in number {token.strip()!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token.strip()!r}")
    return value


def _parse_floats(cells: list[str], missing_as: float) -> tuple[float, ...]:
    """``_parse_float`` of each cell: in one pass when every cell is a
    non-empty run of ``[0-9.eE+-]`` and all are finite, else cell by cell,
    so a rejection keeps its message."""
    if all(cells) and _PLAIN_NUMBERS.fullmatch("".join(cells)):
        try:
            values = tuple(map(float, cells))
        except ValueError:
            pass
        else:
            if math.isfinite(sum(values)):  # an overflowing sum goes cell by cell too
                return values
    return tuple(_parse_float(cell, missing_as) for cell in cells)


def parse_samples(path, schema) -> tuple[SampleSet, tuple[tuple[int, str], ...]]:
    """Ingest a CSV under a column-role schema: (sample set, rejected rows).

    Rows that cannot be interpreted (bad label, unparseable or infinite
    number, negative abundance, duplicate sample id, missing ids, a
    sample id that is not a plain file name) are rejected
    individually and reported as (file line number, reason) pairs; the
    rest form the returned SampleSet.
    """
    schema = load_schema(schema)
    reader = read_csv(path)
    try:
        _, header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"{path}: file is empty") from None
    roles = [schema.role_of(col, path) for col in header]
    for required in ("sample_id", "study_id", "label"):
        if required not in roles:
            raise SchemaError(f"{path}: no column plays role {required!r}")
    clinical_cols = sorted(header[i] for i, r in enumerate(roles) if r == "clinical")
    taxon_cols = sorted(header[i] for i, r in enumerate(roles) if r == "taxon")
    col_index = {col: i for i, col in enumerate(header)}
    if len(col_index) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    clinical_at = [col_index[c] for c in clinical_cols]
    taxon_at = [col_index[c] for c in taxon_cols]
    id_i, study_i, label_i = map(roles.index, ("sample_id", "study_id", "label"))
    # The last visit column, if several take the schema's default role.
    visit_i = max((i for i, r in enumerate(roles) if r == "visit"), default=None)

    samples: list[Sample] = []
    rejected: list[tuple[int, str]] = []
    seen_ids: set[str] = set()
    visit_counter: dict[str, int] = {}
    for lineno, row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            rejected.append((lineno, f"expected {len(header)} fields, got {len(row)}"))
            continue
        sample_id = row[id_i].strip()
        study_id = row[study_i].strip()
        if not sample_id:
            rejected.append((lineno, "empty sample_id"))
            continue
        if not study_id:
            rejected.append((lineno, "empty study_id"))
            continue
        if sample_id in seen_ids:
            rejected.append((lineno, f"duplicate sample_id {sample_id!r}"))
            continue
        if not is_file_name(sample_id):
            rejected.append((lineno, f"sample_id {sample_id!r} is not a plain file name"))
            continue
        try:
            label = _parse_label(row[label_i])
        except ValueError as exc:
            rejected.append((lineno, str(exc)))
            continue
        if visit_i is not None:
            try:
                visit = int(row[visit_i].strip())
                if visit < 1 or "_" in row[visit_i]:
                    raise ValueError
            except ValueError:
                rejected.append((lineno, f"visit must be a positive integer, got {row[visit_i]!r}"))
                continue
        else:
            visit = visit_counter.get(study_id, 0) + 1
        try:
            clinical = _parse_floats([row[i] for i in clinical_at], math.nan)
        except ValueError as exc:
            rejected.append((lineno, f"bad clinical value: {exc}"))
            continue
        try:
            taxa = _parse_floats([row[i] for i in taxon_at], 0.0)
        except ValueError as exc:
            rejected.append((lineno, f"bad abundance value: {exc}"))
            continue
        if taxa and min(taxa) < 0:
            rejected.append((lineno, "negative abundance"))
            continue
        seen_ids.add(sample_id)
        visit_counter[study_id] = visit if visit_i is not None else visit_counter.get(study_id, 0) + 1
        samples.append(Sample(sample_id=sample_id, study_id=study_id,
                              visit_index=visit, label=label,
                              clinical=clinical, taxa=taxa))
    if not samples:
        raise EmptyInputError(f"{path}: no usable rows")
    return (SampleSet(tuple(clinical_cols), tuple(taxon_cols), tuple(samples)),
            tuple(rejected))


def split_grouped_stratified(sample_set: SampleSet,
                             train_fraction: float = 0.75,
                             seed: int = 0) -> tuple[SampleSet, SampleSet]:
    """Group-disjoint (train, test) split of studies, stratified by label.

    Each study is assigned its majority sample label (ties count as
    positive). Within each label stratum the study ids are sorted,
    shuffled by the seed, and the first round(fraction * size) go to
    train; rounding is half-up and clamped so both partitions keep at
    least one study per stratum.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    if len(sample_set) == 0:
        raise EmptyInputError("cannot split an empty sample set")
    labels_by_study: dict[str, list[int]] = {}
    for s in sample_set.samples:
        labels_by_study.setdefault(s.study_id, []).append(s.label)
    stratum_of = {sid: int(2 * sum(lbls) >= len(lbls))
                  for sid, lbls in labels_by_study.items()}
    rng = random.Random(seed)
    train_ids: list[str] = []
    test_ids: list[str] = []
    for label in (0, 1):
        ids = sorted(sid for sid, lab in stratum_of.items() if lab == label)
        if len(ids) < 2:
            raise StratificationError(
                f"label stratum {label} has {len(ids)} study ids; "
                f"need at least 2 to cover both partitions")
        rng.shuffle(ids)
        k = int(train_fraction * len(ids) + 0.5)
        k = min(max(k, 1), len(ids) - 1)
        train_ids.extend(ids[:k])
        test_ids.extend(ids[k:])
    return (sample_set.restrict_to_studies(train_ids),
            sample_set.restrict_to_studies(test_ids))


def draw_eval_cohort(sample_set: SampleSet,
                     n_pos: int = 15,
                     n_neg: int = 15,
                     seed: int = 0) -> SampleSet:
    """Draw exactly n_pos positive and n_neg negative samples without
    replacement, deterministically per seed."""
    pos = sorted(s.sample_id for s in sample_set.samples if s.label == 1)
    neg = sorted(s.sample_id for s in sample_set.samples if s.label == 0)
    if len(pos) < n_pos:
        raise CohortError(f"need {n_pos} positive samples, only {len(pos)} available")
    if len(neg) < n_neg:
        raise CohortError(f"need {n_neg} negative samples, only {len(neg)} available")
    rng = random.Random(seed)
    chosen = rng.sample(pos, n_pos) + rng.sample(neg, n_neg)
    return sample_set.subset(chosen)


def feature_medians(matrix: np.ndarray) -> np.ndarray:
    """Per-column medians ignoring NaN; all-NaN columns get 0.0.

    Compute these on training data only and reuse them everywhere else
    so no test-set information leaks into the model.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise EmptyInputError("need a non-empty 2-d matrix to compute medians")
    medians = np.zeros(matrix.shape[1])
    for j in range(matrix.shape[1]):
        col = matrix[:, j]
        finite = col[~np.isnan(col)]
        medians[j] = _median(finite) if finite.size else 0.0
    return medians


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty NaN-free 1-d array, computed the way
    numpy computes it (the middle order statistics, then their mean) but
    without its NaN check, which imports numpy.ma."""
    half = values.size // 2
    kth = [half - 1, half] if values.size % 2 == 0 else [half]
    return float(np.mean(np.partition(values, kth)[kth[0]:half + 1]))


def impute(matrix: np.ndarray, medians: np.ndarray) -> np.ndarray:
    """Replace NaN cells with the given per-column medians."""
    matrix = np.asarray(matrix, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if matrix.shape[1] != medians.size:
        raise ValueError(f"median vector ({medians.size}) does not match "
                         f"matrix columns ({matrix.shape[1]})")
    out = matrix.copy()
    nan_r, nan_c = np.nonzero(np.isnan(out))
    out[nan_r, nan_c] = medians[nan_c]
    return out
