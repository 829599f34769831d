"""Hyperparameter search: random warmup, then a small TPE-style sampler.

The objective is mean validation F1 over a grouped k-fold split (folds
never cut a study in half). The first half of the trial budget samples
uniformly from the search space; afterwards, completed trials are split
into a good set (top quartile by objective) and a bad set, each
dimension gets a Gaussian kernel-density ("Parzen") estimate per set,
and the next candidate maximizes the density ratio good/bad among a
fixed number of proposals drawn from the good-set mixture.

Everything is deterministic per (seed, trial index); tied objectives
resolve to the earliest trial.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from ..errors import AdamError, EmptyInputError
from .gbdt import fit_gbdt
from .metrics import precision_recall_f1

N_TPE_CANDIDATES = 24
GOOD_FRACTION = 0.25


class Dimension(NamedTuple):
    """One search dimension. kind: 'int', 'float', or 'log' (log-uniform float)."""

    name: str
    kind: str
    low: float
    high: float

    def sample(self, rng: random.Random) -> float:
        if self.kind == "log":
            return math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
        value = rng.uniform(self.low, self.high)
        return int(round(value)) if self.kind == "int" else value

    def to_internal(self, value: float) -> float:
        return math.log(value) if self.kind == "log" else float(value)

    def from_internal(self, value: float) -> float:
        if self.kind == "log":
            value = math.exp(value)
        value = min(max(value, self.low), self.high)
        return int(round(value)) if self.kind == "int" else float(value)


def default_space() -> tuple[Dimension, ...]:
    return (
        Dimension("n_trees", "int", 20, 150),
        Dimension("max_depth", "int", 2, 5),
        Dimension("learning_rate", "log", 0.05, 0.5),
        Dimension("l2_lambda", "log", 1e-2, 10.0),
        Dimension("min_child_weight", "float", 0.5, 5.0),
        Dimension("subsample_fraction", "float", 0.6, 1.0),
    )


class TrialRecord(NamedTuple):
    index: int
    params: dict[str, float]
    score: float
    error: str | None = None


def grouped_kfold(groups, n_folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic k-fold assignment at the group level.

    Unique groups are sorted, shuffled by the seed, and dealt
    round-robin to folds; each fold's validation rows are the rows of
    its groups. The effective fold count is capped by the number of
    groups.
    """
    groups = np.asarray(groups)
    if groups.size == 0:
        raise EmptyInputError("no group labels")
    unique = sorted(set(groups.tolist()))
    n_folds = min(n_folds, len(unique))
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, have {len(unique)} group(s)")
    rng = random.Random(seed)
    rng.shuffle(unique)
    fold_of = {grp: i % n_folds for i, grp in enumerate(unique)}
    assignment = np.array([fold_of[g] for g in groups.tolist()])
    folds = []
    for f in range(n_folds):
        val = np.nonzero(assignment == f)[0]
        train = np.nonzero(assignment != f)[0]
        folds.append((train, val))
    return folds


def _cv_f1(X, y, groups, params: dict, n_folds: int, seed: int) -> float:
    folds = grouped_kfold(groups, n_folds, seed)
    scores = []
    for k, (train_idx, val_idx) in enumerate(folds):
        if np.count_nonzero(y[train_idx]) in (0, train_idx.size):
            continue  # a single-class fold teaches nothing
        model = fit_gbdt(X[train_idx], y[train_idx], params=dict(params), seed=seed + k)
        pred = model.predict(X[val_idx])
        scores.append(precision_recall_f1(y[val_idx], pred)[2])
    if not scores:
        raise EmptyInputError("every fold was single-class; cannot cross-validate")
    return float(np.mean(scores))


def _parzen_logpdf(x: float, points: list[float], bandwidth: float) -> float:
    if not points:
        return 0.0
    acc = 0.0
    inv = 1.0 / (bandwidth * math.sqrt(2.0 * math.pi))
    for p in points:
        z = (x - p) / bandwidth
        acc += inv * math.exp(-0.5 * z * z)
    return math.log(max(acc / len(points), 1e-300))


def _tpe_propose(space, records: list[TrialRecord], rng: random.Random) -> dict[str, float]:
    ranked = sorted(records, key=lambda r: (-r.score, r.index))
    n_good = max(1, int(math.ceil(GOOD_FRACTION * len(ranked))))
    good, bad = ranked[:n_good], ranked[n_good:]
    if not bad:
        return {dim.name: dim.sample(rng) for dim in space}
    proposal: dict[str, float] = {}
    for dim in space:
        g_pts = [dim.to_internal(r.params[dim.name]) for r in good]
        b_pts = [dim.to_internal(r.params[dim.name]) for r in bad]
        lo, hi = dim.to_internal(dim.low), dim.to_internal(dim.high)
        span = hi - lo if hi > lo else 1.0
        bw_g = max(span / math.sqrt(len(g_pts) + 1), 1e-3 * span)
        bw_b = max(span / math.sqrt(len(b_pts) + 1), 1e-3 * span)
        best_x, best_ratio = None, -math.inf
        for _ in range(N_TPE_CANDIDATES):
            center = rng.choice(g_pts)
            x = min(max(rng.gauss(center, bw_g), lo), hi)
            ratio = _parzen_logpdf(x, g_pts, bw_g) - _parzen_logpdf(x, b_pts, bw_b)
            if ratio > best_ratio:
                best_ratio, best_x = ratio, x
        proposal[dim.name] = dim.from_internal(best_x)
    return proposal


def run_search(X, y, groups, n_trials: int, seed: int = 0,
               n_folds: int = 3,
               space: tuple[Dimension, ...] | None = None,
               ) -> tuple[TrialRecord, tuple[TrialRecord, ...]]:
    """Search GBDT hyperparameters against grouped-CV mean F1.

    :param groups: per-row group (study) labels; folds are group-disjoint.
    :returns: (best trial, ties to the earliest; the full trial log).
        A trial whose configuration fails with an AdamError (a
        degenerate fold, say) scores 0 and keeps the message; any other
        exception is a fault and propagates.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    space = space if space is not None else default_space()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if len(groups) != len(X):
        raise ValueError(f"need one group label per row: {len(groups)} labels, {len(X)} rows")
    records: list[TrialRecord] = []
    n_random = max(1, n_trials // 2)
    for index in range(n_trials):
        rng = random.Random(1_000_003 * seed + index)
        if index < n_random or len(records) < 2:
            params = {dim.name: dim.sample(rng) for dim in space}
        else:
            params = _tpe_propose(space, records, rng)
        try:
            score = _cv_f1(X, y, groups, params, n_folds, seed)
            records.append(TrialRecord(index=index, params=params, score=score))
        except AdamError as exc:  # a failed configuration scores zero
            records.append(TrialRecord(index=index, params=params, score=0.0,
                                       error=str(exc)))
    return max(records, key=lambda r: (r.score, -r.index)), tuple(records)
