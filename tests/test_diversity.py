"""Alpha and beta diversity: closed forms, bounds, and a frozen profile."""

import math

import numpy as np
import pytest

from adam.diversity import (
    ALPHA_METRICS,
    BETA_METRICS,
    alpha_metrics,
    berger_parker_index,
    beta_metrics,
    bray_curtis,
    canberra_distance,
    diversity_profiles,
    gini_simpson_index,
    jaccard_distance,
    shannon_index,
)
from adam.errors import AlignmentError, DegenerateCommunityError

# 64-taxon community tuned so the report-format values are exactly
# "3.50" (Shannon) and "0.93" (Gini-Simpson): one dominant taxon,
# ten mid-abundance taxa, and a uniform tail.
BALANCED_PROFILE = (22.97697,) + (3.78242,) * 10 + (0.7396,) * 53


def test_uniform_community_closed_forms():
    for k in (1, 2, 3, 5, 17, 64, 1000):
        x = np.full(k, 7.3)
        assert abs(shannon_index(x) - math.log(k)) < 1e-12
        assert abs(gini_simpson_index(x) - (1.0 - 1.0 / k)) < 1e-12
        assert abs(berger_parker_index(x) - 1.0 / k) < 1e-12


def test_single_taxon_community():
    x = [0.0, 9.5, 0.0, 0.0]
    assert shannon_index(x) == 0.0
    assert gini_simpson_index(x) == 0.0
    assert berger_parker_index(x) == 1.0


def test_alpha_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.random(32) + 1e-9
        for fn in (shannon_index, gini_simpson_index, berger_parker_index):
            assert abs(fn(x) - fn(x * 1234.5)) < 1e-12


def test_frozen_profile_matches_report_formats():
    h = shannon_index(BALANCED_PROFILE)
    gs = gini_simpson_index(BALANCED_PROFILE)
    assert f"{h:.2f}" == "3.50"
    assert f"{gs:.2f}" == "0.93"
    # independent direct-summation oracle
    total = math.fsum(BALANCED_PROFILE)
    p = [v / total for v in BALANCED_PROFILE]
    h_oracle = -math.fsum(pi * math.log(pi) for pi in p)
    gs_oracle = 1.0 - math.fsum(pi * pi for pi in p)
    assert abs(h - h_oracle) < 1e-12
    assert abs(gs - gs_oracle) < 1e-12
    assert abs(berger_parker_index(BALANCED_PROFILE) - max(p)) < 1e-15


def test_beta_symmetry_and_bounds():
    rng = np.random.default_rng(1)
    for _ in range(300):
        d = int(rng.integers(2, 40))
        x = rng.random(d) * rng.integers(1, 100)
        y = rng.random(d) * rng.integers(1, 100)
        x[rng.random(d) < 0.3] = 0.0
        y[rng.random(d) < 0.3] = 0.0
        if x.sum() == 0 or y.sum() == 0:
            continue
        for fn in (bray_curtis, jaccard_distance, canberra_distance):
            assert abs(fn(x, y) - fn(y, x)) < 1e-12
        assert 0.0 <= bray_curtis(x, y) <= 1.0
        assert 0.0 <= jaccard_distance(x, y) <= 1.0
        support = int(np.sum((x + y) > 0))
        assert 0.0 <= canberra_distance(x, y) <= support + 1e-12
        for fn in (bray_curtis, jaccard_distance, canberra_distance):
            assert fn(x, x) == 0.0


def test_beta_extremes():
    x = np.array([1.0, 2.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, 3.0, 1.0])
    assert bray_curtis(x, y) == 1.0
    assert jaccard_distance(x, y) == 1.0
    assert canberra_distance(x, y) == 4.0
    z = np.array([2.0, 4.0, 0.0, 0.0])
    assert jaccard_distance(x, z) == 0.0  # same support


def test_bray_curtis_hand_value():
    # |1-2| + |3-1| = 3 over 1+2+3+1 = 7
    assert abs(bray_curtis([1, 3], [2, 1]) - 3.0 / 7.0) < 1e-15


def test_metric_dicts():
    x = [1.0, 2.0, 3.0]
    a = alpha_metrics(x)
    assert tuple(a) == ALPHA_METRICS
    b = beta_metrics(x, [3.0, 2.0, 1.0])
    assert tuple(b) == BETA_METRICS


def test_input_validation():
    with pytest.raises(DegenerateCommunityError):
        shannon_index([])
    with pytest.raises(DegenerateCommunityError):
        gini_simpson_index([0.0, 0.0])
    with pytest.raises(ValueError):
        shannon_index([1.0, -0.5])
    with pytest.raises(ValueError):
        berger_parker_index([1.0, float("inf")])
    with pytest.raises(AlignmentError):
        bray_curtis([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateCommunityError):
        jaccard_distance([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        canberra_distance([[1.0]], [[1.0]])


def test_diversity_profile_means():
    rng = np.random.default_rng(2)
    sample = rng.random(16)
    ref = rng.random((5, 16))
    prof = diversity_profiles(sample[None, :], ref)[0]
    assert prof.shannon == shannon_index(sample)
    assert prof.gini_simpson == gini_simpson_index(sample)
    assert prof.berger_parker == berger_parker_index(sample)
    for metric in BETA_METRICS:
        manual = np.mean([beta_metrics(sample, row)[metric] for row in ref])
        assert abs(prof.beta_to_reference[metric] - manual) < 1e-12
    with pytest.raises(AlignmentError):
        diversity_profiles(sample[None, :], rng.random((3, 8)))
    with pytest.raises(DegenerateCommunityError):
        diversity_profiles(sample[None, :], np.empty((0, 16)))


def _profile_pairwise(sample, ref):
    """Mean beta distances by the per-pair loop: one beta_metrics call per
    reference row, accumulated in row order."""
    beta = {m: 0.0 for m in BETA_METRICS}
    for row in np.asarray(ref, dtype=float):
        for m, value in beta_metrics(sample, row).items():
            beta[m] += value
    return {m: v / len(ref) for m, v in beta.items()}


def test_diversity_profile_is_bit_identical_to_pairwise_loop():
    rng = np.random.default_rng(11)
    cases = []
    for n_taxa, n_rows in ((3, 1), (16, 5), (64, 140), (200, 37)):
        cases.append((rng.gamma(0.5, 3.0, n_taxa),
                      rng.gamma(0.5, 3.0, (n_rows, n_taxa)) * 1e-3))
    # Zero abundances: Jaccard > 0, and positions absent from both the
    # sample and a row shrink that row's Canberra mask.
    sample = rng.gamma(0.5, 3.0, 64)
    sample[::5] = 0.0
    ref = rng.gamma(0.5, 3.0, (90, 64))
    ref[rng.random(ref.shape) < 0.3] = 0.0
    ref[:, 0] = 0.0
    cases.append((sample, ref))
    # One row each: a last-ulp difference in a row's value cannot vanish
    # in the running sum.
    cases.extend((sample, row[None, :]) for row in ref[:40])
    for sample, ref in cases:
        prof = diversity_profiles(sample[None, :], ref)[0]
        assert prof.beta_to_reference == _profile_pairwise(sample, ref)
    assert prof.beta_to_reference["jaccard"] > 0.0


@pytest.mark.parametrize("bad_rows", [
    {2: np.nan}, {2: -1.0}, {2: 0.0}, {2: np.inf},
    {1: 0.0, 3: np.nan}, {1: np.nan, 3: -1.0}, {1: -1.0, 3: 0.0},
])
def test_diversity_profile_rejects_like_pairwise_loop(bad_rows):
    rng = np.random.default_rng(12)
    sample = rng.random(8) + 0.1
    ref = rng.random((5, 8))
    for row, value in bad_rows.items():
        if value == 0.0:
            ref[row] = 0.0
        else:
            ref[row, 3] = value
    with pytest.raises(Exception) as pairwise:
        _profile_pairwise(sample, ref)
    with pytest.raises(Exception) as vectorized:
        diversity_profiles(sample[None, :], ref)[0]
    assert type(vectorized.value) is type(pairwise.value)
    assert str(vectorized.value) == str(pairwise.value)
