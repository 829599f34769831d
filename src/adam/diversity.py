"""Alpha and beta diversity metrics for abundance vectors.

Alpha metrics describe one community: Shannon index (natural log),
Gini-Simpson index, and Berger-Parker dominance. Beta metrics compare
two communities on the same taxon axis: Bray-Curtis, Jaccard (on
presence/absence), and Canberra.

All functions accept raw (unnormalized) non-negative abundances; the
alpha metrics normalize to proportions internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DegenerateCommunityError

ALPHA_METRICS = ("shannon", "gini_simpson", "berger_parker")
BETA_METRICS = ("bray_curtis", "jaccard", "canberra")


def _proportions(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d abundance vector, got shape {x.shape}")
    if x.size == 0:
        raise DegenerateCommunityError("abundance vector is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("abundances must be finite")
    if np.any(x < 0):
        raise ValueError("abundances must be non-negative")
    total = x.sum()
    if total <= 0:
        raise DegenerateCommunityError("abundance vector has no positive entries")
    return x / total


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("expected 1-d abundance vectors")
    if x.shape != y.shape:
        raise AlignmentError(f"vectors have different lengths: {x.size} vs {y.size}")
    for v in (x, y):
        if not np.all(np.isfinite(v)):
            raise ValueError("abundances must be finite")
        if np.any(v < 0):
            raise ValueError("abundances must be non-negative")
    if x.sum() <= 0 or y.sum() <= 0:
        raise DegenerateCommunityError("abundance vector has no positive entries")
    return x, y


def shannon_index(x) -> float:
    """Shannon entropy -sum(p ln p) in nats; 0 for a single-taxon community."""
    p = _proportions(x)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def gini_simpson_index(x) -> float:
    """Gini-Simpson index 1 - sum(p^2); the chance two draws differ."""
    p = _proportions(x)
    return float(1.0 - (p * p).sum())


def berger_parker_index(x) -> float:
    """Berger-Parker dominance max(p); 1 for a single-taxon community."""
    p = _proportions(x)
    return float(p.max())


def bray_curtis(x, y) -> float:
    """Bray-Curtis dissimilarity sum|x-y| / sum(x+y), in [0, 1]."""
    x, y = _pair(x, y)
    return float(np.abs(x - y).sum() / (x + y).sum())


def jaccard_distance(x, y) -> float:
    """Jaccard distance on presence/absence: 1 - |A & B| / |A | B|."""
    x, y = _pair(x, y)
    a = x > 0
    b = y > 0
    union = np.logical_or(a, b).sum()
    inter = np.logical_and(a, b).sum()
    return float(1.0 - inter / union)


def canberra_distance(x, y) -> float:
    """Canberra distance sum |x-y| / (x+y) over positions where x+y > 0."""
    x, y = _pair(x, y)
    s = x + y
    mask = s > 0
    return float((np.abs(x - y)[mask] / s[mask]).sum())


def alpha_metrics(x) -> dict[str, float]:
    """All three alpha metrics of one abundance vector."""
    return {
        "shannon": shannon_index(x),
        "gini_simpson": gini_simpson_index(x),
        "berger_parker": berger_parker_index(x),
    }


def beta_metrics(x, y) -> dict[str, float]:
    """All three beta metrics between two aligned abundance vectors."""
    return {
        "bray_curtis": bray_curtis(x, y),
        "jaccard": jaccard_distance(x, y),
        "canberra": canberra_distance(x, y),
    }


@dataclass(frozen=True)
class DiversityProfile:
    """Alpha metrics of a sample plus its mean beta distance to a reference set."""

    shannon: float
    gini_simpson: float
    berger_parker: float
    beta_to_reference: dict[str, float]


def _check_reference(ref: np.ndarray) -> None:
    """Raise what ``_pair`` raises for the first reference row it rejects."""
    nonfinite = ~np.isfinite(ref).all(axis=1)
    negative = (ref < 0).any(axis=1)
    empty = ref.sum(axis=1) <= 0
    bad = np.flatnonzero(nonfinite | negative | empty)
    if bad.size == 0:
        return
    i = bad[0]
    if nonfinite[i]:
        raise ValueError("abundances must be finite")
    if negative[i]:
        raise ValueError("abundances must be non-negative")
    raise DegenerateCommunityError("abundance vector has no positive entries")


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, the order of a ``total += value`` loop."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def diversity_profile(sample, reference_rows) -> DiversityProfile:
    """Profile one sample against a set of reference communities.

    :param sample: 1-d abundance vector.
    :param reference_rows: 2-d array, one reference community per row,
        on the same taxon axis as the sample.
    :returns: alpha metrics of the sample and, for each beta metric,
        the mean dissimilarity to the reference rows.

    The beta metrics are row reductions over the whole reference matrix;
    each value is bit-identical to the pairwise function's, and the
    per-row values are summed in row order before dividing by the count.
    """
    sample = np.asarray(sample, dtype=float)
    ref = np.asarray(reference_rows, dtype=float)
    if ref.ndim != 2 or ref.shape[0] == 0:
        raise DegenerateCommunityError("reference set must contain at least one community")
    if ref.shape[1] != sample.size:
        raise AlignmentError(
            f"reference axis {ref.shape[1]} does not match sample axis {sample.size}")
    alpha = alpha_metrics(sample)
    _check_reference(ref)
    diff = np.abs(sample - ref)
    total = sample + ref
    union = ((sample > 0) | (ref > 0)).sum(axis=1)
    inter = ((sample > 0) & (ref > 0)).sum(axis=1)
    positive = total > 0
    canberra = (diff / np.where(positive, total, 1.0)).sum(axis=1)
    # A masked row sums a shorter array, whose pairwise blocking differs
    # from the full row's; those rows take the pairwise route.
    for i in np.flatnonzero(~positive.all(axis=1)):
        mask = positive[i]
        canberra[i] = (diff[i][mask] / total[i][mask]).sum()
    per_row = {
        "bray_curtis": diff.sum(axis=1) / total.sum(axis=1),
        "jaccard": 1.0 - inter / union,
        "canberra": canberra,
    }
    n = ref.shape[0]
    beta = {m: _running_sum(per_row[m]) / n for m in BETA_METRICS}
    return DiversityProfile(shannon=alpha["shannon"],
                            gini_simpson=alpha["gini_simpson"],
                            berger_parker=alpha["berger_parker"],
                            beta_to_reference=beta)
