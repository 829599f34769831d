"""Two-sample statistics: exact enumeration oracles and hand values."""

import itertools
import math

import numpy as np
import pytest

from adam.errors import DegenerateStatisticError, EmptyInputError
from adam.stats import (
    _EXACT_WORK_LIMIT,
    _edgeworth_mwu_p,
    _exact_mwu_p,
    _u_arrangement_counts,
    cohens_d,
    f_distribution_sf,
    levene_test,
    mann_whitney_u,
    midranks,
    regularized_incomplete_beta,
    variance_f_test,
)


# --- regularized incomplete beta --------------------------------------------

def _beta_binomial_oracle(a: int, b: int, x: float) -> float:
    """For integer shapes, I_x(a, b) = P(Binomial(a+b-1, x) >= a)."""
    n = a + b - 1
    return math.fsum(math.comb(n, k) * x ** k * (1 - x) ** (n - k)
                     for k in range(a, n + 1))


def test_beta_against_binomial_identity():
    for a in range(1, 9):
        for b in range(1, 9):
            for x in (0.05, 0.2, 0.37, 0.5, 0.73, 0.9, 0.99):
                got = regularized_incomplete_beta(a, b, x)
                want = _beta_binomial_oracle(a, b, x)
                assert abs(got - want) < 1e-13, (a, b, x)


def test_beta_symmetry_and_endpoints():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = float(rng.uniform(0.2, 20.0))
        b = float(rng.uniform(0.2, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert abs(left - right) < 1e-12
        assert 0.0 <= left <= 1.0
    assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
    assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0
    assert abs(regularized_incomplete_beta(2.5, 3.5, 0.3)
               - 0.29675298929566646) < 1e-13


def test_beta_validation():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_f_sf_closed_form_and_monotonicity():
    # with d1 = 2 the survival function is (1 + 2 f / d2)^(-d2 / 2)
    for d2 in (1.0, 2.0, 6.0, 11.0):
        for f in (0.1, 0.7, 1.0, 3.0, 12.0):
            want = (1.0 + 2.0 * f / d2) ** (-d2 / 2.0)
            assert abs(f_distribution_sf(f, 2.0, d2) - want) < 1e-13
    assert f_distribution_sf(0.0, 3.0, 5.0) == 1.0
    assert f_distribution_sf(-2.0, 3.0, 5.0) == 1.0
    grid = [f_distribution_sf(f, 4.0, 7.0) for f in np.linspace(0.01, 20, 100)]
    assert all(b < a for a, b in zip(grid, grid[1:]))


# --- midranks ----------------------------------------------------------------

def test_midranks_hand_case():
    ranks, tie_sum = midranks([3.0, 1.0, 3.0, 2.0, 3.0])
    assert list(ranks) == [4.0, 1.0, 4.0, 2.0, 4.0]
    assert tie_sum == 3 ** 3 - 3
    ranks, tie_sum = midranks([10.0, 20.0, 30.0])
    assert list(ranks) == [1.0, 2.0, 3.0]
    assert tie_sum == 0.0


# --- Mann-Whitney U -----------------------------------------------------------

def test_mwu_disjoint_hand_case():
    u, p = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert u == 0.0
    assert abs(p - 0.1) < 1e-15
    u_rev, p_rev = mann_whitney_u([4.0, 5.0, 6.0], [1.0, 2.0, 3.0])
    assert u_rev == 9.0
    assert abs(p_rev - 0.1) < 1e-15


def test_mwu_identical_groups():
    a = [0.7, 0.7, 0.7, 0.8, 0.9, 0.6, 0.7, 0.8, 0.7, 0.7]
    u, p = mann_whitney_u(a, list(a))
    assert u == len(a) ** 2 / 2.0
    assert p >= 0.99


def _mwu_enumeration_oracle(a, b):
    """Exact two-sided p by enumerating which ranks group a occupies."""
    pooled = sorted(a + b)
    m, n = len(a), len(b)
    rank_of = {v: i + 1 for i, v in enumerate(pooled)}
    u_obs = sum(rank_of[v] for v in a) - m * (m + 1) / 2
    d_obs = abs(u_obs - m * n / 2)
    hits = total = 0
    for combo in itertools.combinations(range(1, m + n + 1), m):
        u = sum(combo) - m * (m + 1) / 2
        total += 1
        if abs(u - m * n / 2) >= d_obs - 1e-12:
            hits += 1
    return hits / total


def test_mwu_exact_against_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        pool = rng.permutation(np.arange(1.0, m + n + 1.0))
        a = pool[:m].tolist()
        b = pool[m:].tolist()
        u, p = mann_whitney_u(a, b)
        assert abs(p - _mwu_enumeration_oracle(a, b)) < 1e-12


def _untied_groups(m, n, seed):
    """Distinct values, group a shifted up by a fraction of the pool."""
    pool = np.random.default_rng(seed).permutation(m + n).astype(float)
    return pool[:m] + (m + n) // 8 + 0.5, pool[m:]


# Untied shapes and the route each takes; the first six were once served
# by enumeration, closed forms, FFT inversion or the saddlepoint tail.
MWU_ROUTES = [
    (1, 40, "exact"),
    (2, 40, "exact"),
    (9, 9, "exact"),
    (20, 20, "exact"),
    (3, 7000, "exact"),
    (50, 50, "exact"),
    (20, 500, "exact"),  # min(m, n) * m * n == _EXACT_WORK_LIMIT
    (20, 501, "edgeworth"),  # first shape past it
]


@pytest.mark.parametrize("m, n, route", MWU_ROUTES)
def test_mwu_untied_route_table(m, n, route):
    a, b = _untied_groups(m, n, seed=m * n)
    u, p = mann_whitney_u(a, b)
    assert mann_whitney_u(b, a)[1] == p
    if route == "exact":
        assert min(m, n) * m * n <= _EXACT_WORK_LIMIT
        assert p == _exact_mwu_p(min(m, n), max(m, n), u)
        if math.comb(m + n, min(m, n)) <= 50_000:
            assert abs(p - _mwu_enumeration_oracle(a.tolist(), b.tolist())) <= 1e-12
    else:
        assert min(m, n) * m * n > _EXACT_WORK_LIMIT
        assert p == _edgeworth_mwu_p(m, n, u, 0.0)


@pytest.mark.parametrize("size", [60, 80])
def test_mwu_edgeworth_close_to_exact_past_the_limit(size):
    mn = size * size
    assert size * mn > _EXACT_WORK_LIMIT
    counts = _u_arrangement_counts(size, size)
    total = sum(counts)
    below = worst = 0
    for u in range(mn // 2):
        # 2u < mn: the two tails are disjoint mirror images
        below += counts[u]
        exact = min(1.0, 2 * below / total)
        worst = max(worst, abs(exact - _edgeworth_mwu_p(size, size, float(u), 0.0)))
        if u == mn // 4:
            assert exact == _exact_mwu_p(size, size, float(u))
    assert worst <= 5e-5


def test_mwu_tied_data_takes_edgeworth_route():
    from test_evaluation import ADAM_F1, BASELINE_F1
    u, p = mann_whitney_u(ADAM_F1, BASELINE_F1)
    assert p == 0.04181451227581941
    _, tie_sum = midranks(ADAM_F1 + BASELINE_F1)
    assert p == _edgeworth_mwu_p(30, 30, u, tie_sum)
    # ties leave the exact route even for tiny groups
    u, p = mann_whitney_u([1.0, 2.0, 2.0], [3.0, 4.0])
    assert p == _edgeworth_mwu_p(3, 2, u, 6.0)


def test_mwu_rank_transform_invariance():
    rng = np.random.default_rng(2)
    a = rng.normal(size=6).tolist()
    b = (rng.normal(size=5) + 0.8).tolist()
    u1, p1 = mann_whitney_u(a, b)
    transformed_a = [math.exp(v / 3.0) for v in a]
    transformed_b = [math.exp(v / 3.0) for v in b]
    u2, p2 = mann_whitney_u(transformed_a, transformed_b)
    assert u1 == u2
    assert p1 == p2


def test_mwu_u_complement():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=int(rng.integers(2, 20)))
        b = rng.normal(size=int(rng.integers(2, 20)))
        ua, _ = mann_whitney_u(a, b)
        ub, _ = mann_whitney_u(b, a)
        assert abs(ua + ub - a.size * b.size) < 1e-9


def test_mwu_approx_path_large_groups():
    rng = np.random.default_rng(4)
    a = rng.normal(size=40)
    b = rng.normal(size=45) + 1.2
    _, p_shifted = mann_whitney_u(a, b)
    assert p_shifted < 0.001
    _, p_null = mann_whitney_u(a, rng.normal(size=45))
    assert 0.0 <= p_null <= 1.0


def test_mwu_input_guards():
    with pytest.raises(EmptyInputError):
        mann_whitney_u([], [1.0])
    with pytest.raises(ValueError):
        mann_whitney_u([1.0, float("nan")], [1.0])


# --- Levene --------------------------------------------------------------------

def test_levene_hand_case():
    w, p = levene_test([1.0, 3.0, 5.0, 7.0], [4.0, 4.0, 4.0, 4.0])
    assert abs(w - 12.0) < 1e-10
    assert abs(p - 0.013399964712331038) < 1e-10


def test_levene_zero_spread_cases():
    w, p = levene_test([4.0, 4.0], [9.0, 9.0])
    assert (w, p) == (0.0, 1.0)
    w, p = levene_test([1.0, 3.0], [5.0, 5.0, 5.0])
    assert w == math.inf and p == 0.0


def test_levene_two_value_groups_have_no_within_spread():
    # Both absolute deviations of a two-value group are equal, so such a
    # group adds exactly 0 to the within-group sum; rounding of the group
    # mean must not turn that into a huge finite W.
    assert levene_test([0.9, 1.0], [0.5, 1.0]) == (math.inf, 0.0)
    assert levene_test([1.0, 1.0], [0.96551724137931039, 1.0]) == (math.inf, 0.0)


def test_levene_groups_with_equal_deviations_up_to_rounding():
    # Every deviation of [0.1, 0.1, 0.3, 0.3] from its mean is 0.1 exactly,
    # but 0.1 - 0.2 and 0.3 - 0.2 round apart; the group has no within
    # spread, so W is infinite rather than about 3.5e32.
    assert levene_test([0.1, 0.1, 0.3, 0.3], [0.5, 0.5, 1.0, 1.0]) == (math.inf, 0.0)
    # Deviations 0.4, 0.3, 0.1, 0.8 are truly unequal: the group keeps its
    # within sum 0.26 and the other adds none, so W = 6 * 0.045 / 0.26.
    w, p = levene_test([0.1, 0.2, 0.4, 1.3], [0.5, 0.5, 1.0, 1.0])
    assert w == pytest.approx(27.0 / 26.0, rel=1e-12)
    assert p == pytest.approx(f_distribution_sf(27.0 / 26.0, 1.0, 6.0), rel=1e-12)


def test_levene_center_variants():
    rng = np.random.default_rng(5)
    a = rng.normal(size=20)
    b = rng.normal(size=25) * 3.0
    w_mean, p_mean = levene_test(a, b)
    assert p_mean < 0.01
    # symmetric in the group order
    assert levene_test(b, a) == pytest.approx((w_mean, p_mean))
    with pytest.raises(DegenerateStatisticError):
        levene_test([1.0], [2.0, 3.0])


# --- variance F-test -------------------------------------------------------------

def test_f_test_antisymmetry_and_null():
    rng = np.random.default_rng(6)
    a = rng.normal(size=12)
    b = rng.normal(size=17) * 3.5
    f_ab, p_ab = variance_f_test(a, b)
    f_ba, p_ba = variance_f_test(b, a)
    assert abs(f_ab * f_ba - 1.0) < 1e-12
    assert abs(p_ab - p_ba) < 1e-12
    assert p_ab < 0.05
    f_self, p_self = variance_f_test(a, a.copy())
    assert f_self == 1.0
    assert abs(p_self - 1.0) < 1e-12


def test_f_test_guards():
    with pytest.raises(DegenerateStatisticError):
        variance_f_test([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(DegenerateStatisticError):
        variance_f_test([1.0], [1.0, 2.0])


# --- Cohen's d ---------------------------------------------------------------------

def test_cohens_d_hand_cases():
    assert abs(cohens_d([2.0, 4.0], [0.0, 2.0]) - math.sqrt(2.0)) < 1e-14
    assert abs(cohens_d([0.0, 2.0], [-1.0, 1.0]) - 1.0 / math.sqrt(2.0)) < 1e-14
    assert cohens_d([5.0, 5.0], [3.0, 4.0]) == pytest.approx(3.0)


def test_cohens_d_properties():
    rng = np.random.default_rng(7)
    a = rng.normal(size=15) + 1.0
    b = rng.normal(size=20)
    d = cohens_d(a, b)
    assert cohens_d(b, a) == pytest.approx(-d)
    assert cohens_d(3.0 * a, 3.0 * b) == pytest.approx(d)
    assert cohens_d(a + 5.0, b + 5.0) == pytest.approx(d)
    with pytest.raises(DegenerateStatisticError):
        cohens_d([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DegenerateStatisticError):
        cohens_d([1.0], [2.0, 3.0])
