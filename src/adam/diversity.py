"""Alpha and beta diversity metrics for abundance vectors.

Alpha metrics describe one community: Shannon index (natural log),
Gini-Simpson index, and Berger-Parker dominance. Beta metrics compare
two communities on the same taxon axis: Bray-Curtis, Jaccard (on
presence/absence), and Canberra.

All functions accept raw (unnormalized) non-negative abundances; the
alpha metrics normalize to proportions internally.
"""

from __future__ import annotations

from typing import NamedTuple

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


class DiversityProfile(NamedTuple):
    """Alpha metrics of a sample plus its mean beta distance to a reference set."""

    shannon: float
    gini_simpson: float
    berger_parker: float
    beta_to_reference: dict[str, float]


# Visits are profiled in blocks whose (visits, reference rows, taxa)
# temporaries hold at most about this many bytes each (or one visit's).
# Four are alive at once; at 1 MB, classify's peak RSS rose by 2.5 MB.
BLOCK_BYTES = 1 << 18


def _check_rows(rows: np.ndarray, names=None) -> None:
    """Raise what ``_pair`` raises for the first row it rejects, prefixed
    with that row's name when names are given."""
    nonfinite = ~np.isfinite(rows).all(axis=1)
    negative = (rows < 0).any(axis=1)
    empty = rows.sum(axis=1) <= 0
    bad = np.flatnonzero(nonfinite | negative | empty)
    if bad.size == 0:
        return
    i = bad[0]
    where = "" if names is None else f"{names[i]}: "
    if nonfinite[i]:
        raise ValueError(f"{where}abundances must be finite")
    if negative[i]:
        raise ValueError(f"{where}abundances must be non-negative")
    raise DegenerateCommunityError(f"{where}abundance vector has no positive entries")


def _running_sums(values: np.ndarray) -> np.ndarray:
    """Each row's left-to-right float sum, the order of a ``total += value``
    loop from 0.0 (cumsum adds one term after another)."""
    start = np.zeros((values.shape[0], 1))
    return np.cumsum(np.concatenate([start, values], axis=1), axis=1)[:, -1]


def _shannon(p: np.ndarray) -> np.ndarray:
    out = np.empty(p.shape[0])
    full = (p > 0).all(axis=1)
    out[full] = -(p[full] * np.log(p[full])).sum(axis=1)
    # A row with a zero proportion sums a shorter array, whose pairwise
    # blocking differs from the full row's; those rows drop the zeros.
    for i in np.flatnonzero(~full):
        q = p[i][p[i] > 0]
        out[i] = -(q * np.log(q)).sum()
    return out


def _beta_rows(samples: np.ndarray, ref: np.ndarray) -> dict[str, np.ndarray]:
    """Each beta metric between every sample and every reference row,
    shaped (samples, reference rows); each value is bit-identical to
    the pairwise function's."""
    s = samples[:, None, :]
    diff = np.abs(s - ref)
    total = s + ref
    union = ((s > 0) | (ref > 0)).sum(axis=2)
    inter = ((s > 0) & (ref > 0)).sum(axis=2)
    positive = total > 0
    canberra = (diff / np.where(positive, total, 1.0)).sum(axis=2)
    # A masked pair sums a shorter array, whose pairwise blocking differs
    # from the full pair's; those pairs take the pairwise route.
    for v, r in np.argwhere(~positive.all(axis=2)):
        mask = positive[v, r]
        canberra[v, r] = (diff[v, r][mask] / total[v, r][mask]).sum()
    return {
        "bray_curtis": diff.sum(axis=2) / total.sum(axis=2),
        "jaccard": 1.0 - inter / union,
        "canberra": canberra,
    }


def diversity_profiles(samples, reference_rows, names=None,
                       reference_names=None) -> list[DiversityProfile]:
    """Profile each row of samples against one set of reference communities.

    :param samples: 2-d array, one abundance vector per row.
    :param reference_rows: 2-d array, one reference community per row,
        on the same taxon axis as the samples.
    :param names: optional label per sample row, and reference_names
        per reference row; an error about a row starts with its label.
    :returns: per sample row, its alpha metrics and, for each beta
        metric, the mean dissimilarity to the reference rows.

    Each value is bit-identical to the single-vector functions': the
    beta metrics are reductions over (sample, reference row) pairs, and
    a sample's per-row values are summed in row order before dividing by
    the count. Samples go through in blocks of about ``BLOCK_BYTES``.
    """
    samples = np.asarray(samples, dtype=float)
    ref = np.asarray(reference_rows, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"expected a 2-d block of abundance vectors, "
                         f"got shape {samples.shape}")
    if ref.ndim != 2 or ref.shape[0] == 0:
        raise DegenerateCommunityError("reference set must contain at least one community")
    if ref.shape[1] != samples.shape[1]:
        raise AlignmentError(
            f"reference axis {ref.shape[1]} does not match sample axis {samples.shape[1]}")
    if samples.shape[1] == 0 and samples.shape[0]:
        raise DegenerateCommunityError("abundance vector is empty")
    _check_rows(samples, names)
    _check_rows(ref, reference_names)
    p = samples / samples.sum(axis=1)[:, None]
    alpha = {"shannon": _shannon(p),
             "gini_simpson": 1.0 - (p * p).sum(axis=1),
             "berger_parker": p.max(axis=1)}
    n = ref.shape[0]
    block = max(1, BLOCK_BYTES // max(1, ref.size * 8))
    beta = {m: np.empty(samples.shape[0]) for m in BETA_METRICS}
    for lo in range(0, samples.shape[0], block):
        for m, values in _beta_rows(samples[lo:lo + block], ref).items():
            beta[m][lo:lo + block] = _running_sums(values) / n
    return [DiversityProfile(shannon=float(alpha["shannon"][i]),
                             gini_simpson=float(alpha["gini_simpson"][i]),
                             berger_parker=float(alpha["berger_parker"][i]),
                             beta_to_reference={m: float(beta[m][i])
                                                for m in BETA_METRICS})
            for i in range(samples.shape[0])]
