"""Shapley attribution: fast path vs enumeration, local accuracy, guards."""

import numpy as np
import pytest

from adam.attribution import (
    MAX_EXACT_FEATURES,
    Attribution,
    coalition_margins,
    explain_rows,
    rank_features,
    shap_values,
    shap_values_exact,
)
from adam.ensemble.gbdt import fit_gbdt
from adam.ensemble.tree import Tree
from adam.errors import SizeGuardError


def _model(seed, n=60, d=5, n_trees=10, max_depth=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = ((X[:, 0] + 0.5 * X[:, d // 2] + 0.2 * rng.normal(size=n)) > 0).astype(int)
    return fit_gbdt(X, y, {"n_trees": n_trees, "max_depth": max_depth}), X


def test_routes_agree_randomized():
    rng = np.random.default_rng(0)
    for trial in range(60):
        d = int(rng.integers(2, 7))
        model, X = _model(100 + trial, n=int(rng.integers(20, 80)), d=d,
                          n_trees=int(rng.integers(1, 12)),
                          max_depth=int(rng.integers(1, 5)))
        x = rng.normal(size=d)
        fast = shap_values(model, x)
        slow = shap_values_exact(model, x)
        assert np.max(np.abs(fast - slow)) < 1e-9


def test_local_accuracy():
    rng = np.random.default_rng(1)
    for trial in range(30):
        model, X = _model(200 + trial)
        x = rng.normal(size=5)
        phi = shap_values(model, x)
        total = model.expected_margin + phi.sum()
        assert abs(total - model.predict_margin(x)[0]) < 1e-9


def test_batch_matches_single_rows():
    model, X = _model(3)
    batch = shap_values(model, X[:7])
    assert batch.shape == (7, 5)
    for i in range(7):
        assert np.array_equal(batch[i], shap_values(model, X[i]))


def test_unused_features_are_null_players():
    model, X = _model(4, d=6)
    x = X[0]
    phi = shap_values(model, x)
    used, _ = coalition_margins(model, x)
    for j in range(6):
        if j not in used:
            assert phi[j] == 0.0


def test_coalition_margins_endpoints():
    model, X = _model(5)
    x = X[2]
    used, margins = coalition_margins(model, x)
    assert abs(margins[0] - model.expected_margin) < 1e-9
    full = (1 << len(used)) - 1
    assert abs(margins[full] - model.predict_margin(x)[0]) < 1e-9


def test_single_stump_hand_shapley():
    # one stump: split feature 0 at 0.0, leaves -1 / +1, equal cover
    stump = Tree(feature=np.array([0, -1, -1]), threshold=np.array([0.0, 0.0, 0.0]),
                 left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                 value=np.array([0.0, -1.0, 1.0]), cover=np.array([10.0, 5.0, 5.0]),
                 gain=np.array([1.0, 0.0, 0.0]))
    stump.check(2)
    from adam.ensemble.gbdt import GBDTModel, GBDTParams
    model = GBDTModel(trees=[stump], params=GBDTParams(learning_rate=1.0),
                      n_features=2, base_score=0.0)
    phi = shap_values(model, np.array([3.0, 9.9]))
    # expected margin 0; margin +1; feature 0 carries it all
    assert abs(phi[0] - 1.0) < 1e-12
    assert phi[1] == 0.0
    assert abs(stump.expected_value() - 0.0) < 1e-12
    assert model.predict_margin(np.array([[3.0, 0.0], [-3.0, 0.0]])).tolist() == [1.0, -1.0]


def test_size_guard():
    rng = np.random.default_rng(6)
    d = MAX_EXACT_FEATURES + 5
    X = rng.normal(size=(300, d))
    y = (X.sum(axis=1) > 0).astype(int)
    model = fit_gbdt(X, y, {"n_trees": 40, "max_depth": 4})
    used, _ = (set(), None)
    from adam.attribution import _used_features  # count actually-split features
    if len(_used_features(model.trees)) > MAX_EXACT_FEATURES:
        with pytest.raises(SizeGuardError):
            shap_values_exact(model, X[0])
    else:
        pytest.skip("ensemble did not split on enough features")
    # the polynomial route still runs
    assert shap_values(model, X[0]).shape == (d,)


def test_explain_and_ranking():
    model, X = _model(7)
    names = tuple(f"feat_{i}" for i in range(5))
    att, = explain_rows(model, X[:1], names)
    assert isinstance(att, Attribution)
    assert att.feature_names == names
    assert abs(att.base_value + sum(att.contributions) - att.margin) < 1e-9
    assert abs(att.probability - model.predict_proba(X[0])[0]) < 1e-15
    ranked = att.ranked()
    mags = [abs(v) for _, v in ranked]
    assert mags == sorted(mags, reverse=True)
    assert {n for n, _ in ranked} == set(names)
    with pytest.raises(ValueError):
        explain_rows(model, X[:1], names[:3])


def test_rank_features_tie_break():
    ranked = rank_features(("b", "a", "c"), (0.5, -0.5, 1.0))
    assert ranked == (("c", 1.0), ("a", -0.5), ("b", 0.5))
    with pytest.raises(ValueError):
        rank_features(("a",), (1.0, 2.0))


def test_shape_guards():
    model, X = _model(8)
    with pytest.raises(ValueError):
        shap_values(model, X[:, :3])
    with pytest.raises(ValueError):
        shap_values_exact(model, np.zeros(3))
