"""Binary classification metrics: accuracy, precision/recall/F1, and AUC."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import EmptyInputError
from ..stats import midranks


class BinaryMetrics(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float | None  # None when only one class is present


def _check(y, other, name: str):
    y = np.asarray(y, dtype=float).ravel()
    other = np.asarray(other, dtype=float).ravel()
    if y.size == 0:
        raise EmptyInputError("no labels to score")
    if y.size != other.size:
        raise ValueError(f"labels ({y.size}) and {name} ({other.size}) differ in length")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary 0/1")
    return y, other


def accuracy(y_true, y_pred) -> float:
    y, yhat = _check(y_true, y_pred, "predictions")
    return float((y == yhat).mean())


def precision_recall_f1(y_true, y_pred) -> tuple[float, float, float]:
    """Precision, recall and F1 for the positive class.

    A quantity whose denominator is zero is reported as 0 (no predicted
    positives -> precision 0; no actual positives -> recall 0), and F1
    is 0 whenever precision + recall is 0.
    """
    y, yhat = _check(y_true, y_pred, "predictions")
    tp = float(((y == 1) & (yhat == 1)).sum())
    fp = float(((y == 0) & (yhat == 1)).sum())
    fn = float(((y == 1) & (yhat == 0)).sum())
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def auc_score(y_true, scores) -> float | None:
    """Area under the ROC curve via the midrank (Mann-Whitney) identity.

    Ties in scores contribute half weight. Returns None when y_true
    contains a single class, where the AUC is undefined.
    """
    y, s = _check(y_true, scores, "scores")
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks, _ = midranks(s)
    rank_sum_pos = ranks[y == 1].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def evaluate_binary(y_true, scores, threshold: float = 0.5) -> BinaryMetrics:
    """Score probabilistic predictions; labels are scores >= threshold."""
    y, s = _check(y_true, scores, "scores")
    yhat = (s >= threshold).astype(float)
    precision, recall, f1 = precision_recall_f1(y, yhat)
    return BinaryMetrics(accuracy=accuracy(y, yhat),
                         precision=precision, recall=recall, f1=f1,
                         auc=auc_score(y, s))
