"""Per-seed trial files and the statistical comparison of two of them.

A trials file holds one row per (seed, model): seed, model, accuracy,
auc, f1. Per-seed F1 vectors from two runs are compared with
Mann-Whitney U, Levene's test, a variance F-test, and Cohen's d. This
module needs only numpy and the statistics, so ``adam compare`` never
loads the ensemble or the agents.
"""

from __future__ import annotations

import csv
import math
import re
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DegenerateStatisticError, EmptyInputError, FormatError, read_csv, replacing
from .stats import cohens_d, levene_test, mann_whitney_u, variance_f_test

if TYPE_CHECKING:
    from .ensemble.metrics import BinaryMetrics

CSV_FIELDS = ("seed", "model", "accuracy", "auc", "f1")


class TrialResult(NamedTuple):
    seed: int
    model: str
    metrics: BinaryMetrics
    cohort_size: int


def write_trials_csv(trials, path) -> None:
    """One row per (seed, model): seed, model, accuracy, auc, f1.

    An undefined AUC (single-class cohort) is stored as an empty cell.
    """
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for trial in trials:
            m = trial.metrics
            auc = "" if m.auc is None else f"{m.auc:.17g}"
            writer.writerow([trial.seed, trial.model,
                             f"{m.accuracy:.17g}", auc, f"{m.f1:.17g}"])


def _seed_cell(text: str) -> int:
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError
    return int(text)


def _metric_cell(text: str) -> float:
    """A plain finite number in [0, 1] (nan fails the range check)."""
    value = float(text)
    if "_" in text or not 0.0 <= value <= 1.0:
        raise ValueError
    return value


_TRIAL_CELLS = {
    "seed": _seed_cell,
    "model": str,
    "accuracy": _metric_cell,
    "auc": lambda text: None if text == "" else _metric_cell(text),
    "f1": _metric_cell,
}


def read_trials_csv(path) -> list[dict]:
    """Rows written by write_trials_csv, with typed values.

    A wrong header, a row with the wrong field count, a non-integer
    seed, or an accuracy, auc or f1 that is not a finite number in
    [0, 1] raises FormatError naming the file (and line); an empty auc
    cell reads as None.
    """
    records = read_csv(path)
    if next(records, (1, None))[1] != list(CSV_FIELDS):
        raise FormatError(f"{path}: expected header {','.join(CSV_FIELDS)}")
    rows = []
    for line, record in records:
        if not record:
            continue
        if len(record) != len(CSV_FIELDS):
            raise FormatError(f"{path}: line {line}: expected {len(CSV_FIELDS)} fields")
        typed = {}
        for (field, parse), text in zip(_TRIAL_CELLS.items(), record):
            try:
                typed[field] = parse(text)
            except ValueError:
                raise FormatError(
                    f"{path}: line {line}: bad {field} value {text!r}") from None
        rows.append(typed)
    return rows


class Undefined(NamedTuple):
    """A statistic the inputs leave undefined, with the reason why."""
    reason: str


class ComparisonSummary(NamedTuple):
    n_adam: int
    n_baseline: int
    adam_mean_f1: float
    baseline_mean_f1: float
    adam_std_f1: float | Undefined
    baseline_std_f1: float | Undefined
    variance_ratio: float | Undefined  # baseline variance / adam variance
    mann_whitney: tuple[float, float]  # (U, p)
    levene: tuple[float, float] | Undefined  # (W, p)
    f_test: tuple[float, float] | Undefined  # (F, p)
    cohens_d: float | Undefined


def _f1_vector(values) -> np.ndarray:
    out = [float(v.metrics.f1) if isinstance(v, TrialResult) else float(v)
           for v in values]
    if not out:
        raise EmptyInputError("no F1 values to compare")
    return np.asarray(out)


def _variance(x: np.ndarray) -> float:
    if x.size < 2:
        raise DegenerateStatisticError("each group needs at least 2 values")
    return float(np.var(x, ddof=1))


def _std(x: np.ndarray) -> float:
    return math.sqrt(_variance(x))


def _variance_ratio(a: np.ndarray, b: np.ndarray) -> float:
    """var(b) / var(a), inf when only var(a) is zero."""
    var_a, var_b = _variance(a), _variance(b)
    if var_a == 0.0:
        if var_b == 0.0:
            raise DegenerateStatisticError(
                "variance ratio undefined: both variances are zero")
        return math.inf
    return var_b / var_a


def _defined(statistic, *args):
    """The statistic's value, or Undefined when its inputs rule it out."""
    try:
        return statistic(*args)
    except DegenerateStatisticError as exc:
        return Undefined(str(exc))


def compare_models(adam, baseline) -> ComparisonSummary:
    """Statistical comparison of two per-seed F1 vectors.

    Accepts TrialResult sequences or raw F1 sequences. The variance
    ratio and F statistic are oriented baseline over adam, so values
    above 1 mean the baseline is more variable. A statistic the data
    leaves undefined (fewer than 2 values, zero variance) is recorded
    as Undefined with the reason instead of aborting the comparison.
    """
    a = _f1_vector(adam)
    b = _f1_vector(baseline)
    return ComparisonSummary(
        n_adam=a.size,
        n_baseline=b.size,
        adam_mean_f1=float(np.mean(a)),
        baseline_mean_f1=float(np.mean(b)),
        adam_std_f1=_defined(_std, a),
        baseline_std_f1=_defined(_std, b),
        variance_ratio=_defined(_variance_ratio, a, b),
        mann_whitney=mann_whitney_u(a, b),
        levene=_defined(levene_test, a, b),
        f_test=_defined(variance_f_test, b, a),
        cohens_d=_defined(cohens_d, a, b),
    )


def _pair(value) -> tuple:
    """A (statistic, p) pair, or the same Undefined in both places."""
    return (value, value) if isinstance(value, Undefined) else value


def format_summary(summary: ComparisonSummary) -> str:
    """Key-value block plus a small table, ready to print or save.

    An undefined statistic prints as ``undefined (<reason>)``.
    """
    u_stat, u_p = summary.mann_whitney
    w_stat, w_p = _pair(summary.levene)
    f_stat, f_p = _pair(summary.f_test)
    pairs = [
        ("n_adam", summary.n_adam),
        ("n_baseline", summary.n_baseline),
        ("adam_mean_f1", summary.adam_mean_f1),
        ("baseline_mean_f1", summary.baseline_mean_f1),
        ("adam_std_f1", summary.adam_std_f1),
        ("baseline_std_f1", summary.baseline_std_f1),
        ("variance_ratio_baseline_over_adam", summary.variance_ratio),
        ("mann_whitney_u", u_stat),
        ("mann_whitney_p", u_p),
        ("levene_w", w_stat),
        ("levene_p", w_p),
        ("f_statistic", f_stat),
        ("f_test_p", f_p),
        ("cohens_d", summary.cohens_d),
    ]
    lines = [f"{key}: undefined ({value.reason})" if isinstance(value, Undefined)
             else f"{key}: {value:.17g}" for key, value in pairs]
    lines.append("")
    header = f"{'model':<10} {'n':>4} {'mean_f1':>9} {'std_f1':>8} {'var_f1':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, n, mean, std in (
            ("adam", summary.n_adam, summary.adam_mean_f1, summary.adam_std_f1),
            ("baseline", summary.n_baseline, summary.baseline_mean_f1,
             summary.baseline_std_f1)):
        spread = (f"{'undefined':>8} {'undefined':>8}"
                  if isinstance(std, Undefined)
                  else f"{std:>8.4f} {std ** 2:>8.4f}")
        lines.append(f"{name:<10} {n:>4} {mean:>9.4f} {spread}")
    lines.append("")
    return "\n".join(lines)
