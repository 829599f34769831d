"""Nonparametric two-sample statistics used by the evaluation protocol.

Implements the Mann-Whitney U test (exact arrangement counts for
untied data and a corrected normal approximation), Levene's test for
equal variances, the two-sided variance F-test, and Cohen's d, together
with the regularized incomplete beta function that backs the F
distribution.

Mann-Whitney p-values take one of two routes:

* exact: untied data with min(m, n) * m * n <= _EXACT_WORK_LIMIT
  (200,000). The two-sided p counts rank arrangements per U value from
  the Gaussian-binomial product (1 - q^(n+i)) / (1 - q^i), i = 1..m,
  in Python integers, so hit / total is correctly rounded. At the limit
  the counts take ~50 ms (27 ms at 50 x 50).
* Edgeworth normal: everything else, tied or not. A normal
  approximation with midrank tie correction, a 0.5 continuity
  correction, and the fourth-cumulant (Edgeworth) term. The fourth
  cumulant of U under the null has the closed form
  -[S4(m+n) - S4(m) - S4(n)] / 120 where S4(k) is the sum of fourth
  powers 1^4 + ... + k^4; it follows from the factorization of the
  rank-arrangement generating function into discrete-uniform factors.

Measured worst gaps of the Edgeworth normal to the exact p on untied
data, over every U: 1.4e-5 at 50 x 50, 9.5e-6 at 60 x 60, 5.4e-6 at
80 x 80. The trade-off is at very uneven sizes just past the limit,
where one group holds few values: 8.3e-2 at 1 x 200,001, 1.2e-2 at
2 x 50,001, 2.5e-3 at 3 x 22,223, 1.6e-4 at 10 x 2,001. `adam compare`
pairs two per-seed trial files of the same seed count, so m = n there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateStatisticError, EmptyInputError

_BETA_CF_EPS = 1e-15
_BETA_CF_MAX_ITER = 500
# Untied Mann-Whitney data takes the exact route while the arrangement
# count work min(m, n) * m * n stays within this; there it runs in at
# most ~50 ms (27 ms at 50 x 50).
_EXACT_WORK_LIMIT = 200_000


# ---------------------------------------------------------------------------
# special functions

def _normal_sf(z: float) -> float:
    """Standard normal survival function P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz scheme)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_CF_EPS:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], accurate to ~1e-14."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(b * math.log1p(-x) + a * math.log(x) - _log_beta(b, a)) \
        * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_distribution_sf(f_value: float, d1: float, d2: float) -> float:
    """Survival function P(F > f) of the F distribution with (d1, d2) dof."""
    if f_value <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f_value)
    return regularized_incomplete_beta(d2 / 2.0, d1 / 2.0, x)


# ---------------------------------------------------------------------------
# ranks

def midranks(values) -> tuple[np.ndarray, float]:
    """Ranks 1..N with ties sharing their average rank.

    :returns: (ranks, tie_sum) where tie_sum = sum of t^3 - t over tie groups.
    """
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(v.size, dtype=float)
    tie_sum = 0.0
    i = 0
    sv = v[order]
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        t = j - i + 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        tie_sum += t ** 3 - t
        i = j + 1
    return ranks, tie_sum


# ---------------------------------------------------------------------------
# Mann-Whitney U

def _check_group(name: str, g) -> np.ndarray:
    arr = np.asarray(g, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"group {name} must be 1-d")
    if arr.size == 0:
        raise EmptyInputError(f"group {name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"group {name} contains non-finite values")
    return arr


def _u_arrangement_counts(m: int, n: int) -> list[int]:
    """counts[u] = number of rank arrangements of m-vs-n with statistic u.

    Exact integer Gaussian-binomial construction: start from [1] and for
    i = 1..m multiply by (1 - q^(n+i)) then divide by (1 - q^i) (the
    division is a stride-i cumulative sum, exact over the integers).
    """
    total = m * n
    poly = [1] + [0] * total
    for i in range(1, m + 1):
        shift = n + i
        x = [poly[u] - (poly[u - shift] if u >= shift else 0) for u in range(total + 1)]
        y = [0] * (total + 1)
        for u in range(total + 1):
            y[u] = x[u] + (y[u - i] if u >= i else 0)
        poly = y
    return poly


def _exact_mwu_p(m: int, n: int, u: float) -> float:
    """Two-sided exact p = P(|U - mn/2| >= |u - mn/2|) under the null."""
    counts = _u_arrangement_counts(m, n)
    # compare distances doubled so everything stays integer
    d_obs = abs(int(round(2 * u)) - m * n)
    hit = sum(c for uu, c in enumerate(counts) if abs(2 * uu - m * n) >= d_obs)
    total = sum(counts)
    return hit / total


def _sum_fourth_powers(k: int) -> int:
    return k * (k + 1) * (2 * k + 1) * (3 * k * k + 3 * k - 1) // 30


def _mwu_kappa4(m: int, n: int) -> float:
    s4 = _sum_fourth_powers
    return -(s4(m + n) - s4(m) - s4(n)) / 120.0


def _edgeworth_mwu_p(m: int, n: int, u: float, tie_sum: float) -> float:
    """Two-sided p from the tie-corrected, continuity-corrected normal.

    The variance carries the midrank tie correction, |U - mn/2| is
    shrunk by 0.5, and the tail is sharpened by the fourth-cumulant
    (Edgeworth) term gamma2 / 24 * (z^3 - 3z) * phi(z).
    """
    total = m + n
    mu = m * n / 2.0
    sigma_sq = m * n / 12.0 * ((total + 1) - tie_sum / (total * (total - 1)))
    if sigma_sq <= 0.0:
        return 1.0
    z = max(abs(u - mu) - 0.5, 0.0) / math.sqrt(sigma_sq)
    gamma2 = _mwu_kappa4(m, n) / (sigma_sq * sigma_sq)
    p = 2.0 * (_normal_sf(z) + _normal_pdf(z) * gamma2 / 24.0 * (z ** 3 - 3.0 * z))
    return min(max(p, 0.0), 1.0)


def _approx_mwu_p(m: int, n: int, u: float, tie_sum: float) -> float:
    """Two-sided p for the U statistic: the one route dispatcher.

    Untied data whose arrangement counts cost at most
    _EXACT_WORK_LIMIT gets the exact p; everything else, tied or not,
    gets the Edgeworth-corrected normal.
    """
    small, large = min(m, n), max(m, n)
    if tie_sum == 0.0 and small * m * n <= _EXACT_WORK_LIMIT:
        return _exact_mwu_p(small, large, u)
    return _edgeworth_mwu_p(m, n, u, tie_sum)


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test.

    :returns: (U, p) where U is the statistic of the first group
        computed from midrank sums. p is exact when the pooled values
        are untied and min(m, n) * m * n <= _EXACT_WORK_LIMIT, and the
        Edgeworth-corrected normal otherwise (see the module docstring
        for its measured gaps).
    """
    a = _check_group("a", a)
    b = _check_group("b", b)
    m = a.size
    ranks, tie_sum = midranks(np.concatenate([a, b]))
    u = float(ranks[:m].sum() - m * (m + 1) / 2.0)
    return u, _approx_mwu_p(m, b.size, u, tie_sum)


# ---------------------------------------------------------------------------
# variance tests and effect size

def _two_groups(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Both groups checked by _check_group, each with at least 2 values."""
    a, b = _check_group("a", a), _check_group("b", b)
    if a.size < 2 or b.size < 2:
        raise DegenerateStatisticError("each group needs at least 2 values")
    return a, b


def levene_test(a, b) -> tuple[float, float]:
    """Levene's test (mean-centred) for equality of variances of two groups.

    :returns: (W, p) with W ~ F(1, N - 2) under the null.
    """
    a, b = _two_groups(a, b)
    za = np.abs(a - a.mean())
    zb = np.abs(b - b.mean())
    n_total = a.size + b.size
    grand = (za.sum() + zb.sum()) / n_total
    between = a.size * (za.mean() - grand) ** 2 + b.size * (zb.mean() - grand) ** 2
    # Deviations equal in exact arithmetic (a two-value group's always are)
    # differ only by the rounding of the mean and of x - mean: at most
    # (n + 2) ulps of max |x|. Such a group has no within spread.
    within = sum(
        0.0 if np.ptp(z) <= (x.size + 2) * np.finfo(float).eps * np.abs(x).max()
        else ((z - z.mean()) ** 2).sum() for x, z in ((a, za), (b, zb)))
    if within == 0.0:
        if between == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    w = (n_total - 2) * between / within
    return float(w), f_distribution_sf(w, 1.0, float(n_total - 2))


def variance_f_test(a, b) -> tuple[float, float]:
    """Two-sided F-test for equality of variances.

    F = var(a) / var(b) with n-1 denominators; the p-value doubles the
    smaller tail of F(n_a - 1, n_b - 1).
    """
    a, b = _two_groups(a, b)
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if va == 0.0 or vb == 0.0:
        raise DegenerateStatisticError("variance F-test undefined for zero variance")
    f_value = va / vb
    sf = f_distribution_sf(f_value, float(a.size - 1), float(b.size - 1))
    p = 2.0 * min(sf, 1.0 - sf)
    return f_value, min(max(p, 0.0), 1.0)


def cohens_d(a, b) -> float:
    """Cohen's d with the pooled (n-1) standard deviation."""
    a, b = _two_groups(a, b)
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    pooled = ((a.size - 1) * va + (b.size - 1) * vb) / (a.size + b.size - 2)
    if pooled == 0.0:
        raise DegenerateStatisticError("Cohen's d undefined: both variances are zero")
    return float((a.mean() - b.mean()) / math.sqrt(pooled))
