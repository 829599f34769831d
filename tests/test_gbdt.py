"""Gradient-boosted trees: fit behavior, determinism, serialization."""

import json

import numpy as np
import pytest

from adam.dataset import impute
from adam.ensemble.baselines import fit_logistic_regression, fit_random_forest
from adam.ensemble.gbdt import (
    DEFAULT_PARAMS,
    GBDTParams,
    feature_gains,
    fit_gbdt,
    log_loss,
    model_from_dict,
    model_to_dict,
)
from adam.ensemble.tree import Tree
from adam.errors import DegenerateFitError, EmptyInputError, FormatError, ModelIntegrityError


def _toy(seed=0, n=200, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 2] > 0.1).astype(int)
    return X, y


def test_training_loss_non_increasing():
    X, y = _toy()
    model = fit_gbdt(X, y, {"n_trees": 50})
    hist = model.loss_history
    assert len(hist) == 50
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert hist[-1] < 0.1


def test_separable_accuracy(deployment):
    train, test = deployment["train"], deployment["test"]
    medians = deployment["medians"]
    model = deployment["deployed"].model
    Xtr = impute(train.feature_matrix(), medians)
    Xte = impute(test.feature_matrix(), medians)
    train_acc = (model.predict(Xtr) == train.labels()).mean()
    test_acc = (model.predict(Xte) == test.labels()).mean()
    assert train_acc >= 0.99
    assert test_acc >= 0.95


def test_refit_bit_identical():
    X, y = _toy(3)
    a = fit_gbdt(X, y, {"n_trees": 20})
    b = fit_gbdt(X, y, {"n_trees": 20})
    assert model_to_dict(a) == model_to_dict(b)
    assert np.array_equal(a.predict_margin(X), b.predict_margin(X))


def test_subsampled_fit_seeded():
    X, y = _toy(4)
    params = {"n_trees": 25, "subsample_fraction": 0.6}
    a = fit_gbdt(X, y, params, seed=7)
    b = fit_gbdt(X, y, params, seed=7)
    c = fit_gbdt(X, y, params, seed=8)
    assert model_to_dict(a) == model_to_dict(b)
    assert model_to_dict(a) != model_to_dict(c)
    assert (a.predict(X) == y).mean() > 0.9


@pytest.mark.parametrize("params", [{"n_trees": 30},
                                    {"n_trees": 30, "subsample_fraction": 0.7, "max_depth": 4}])
def test_split_scores_do_not_depend_on_other_columns(params):
    """A fit that splits only on the columns S equals the fit on X[:, S]
    with its features renumbered: no feature's split scores depend on
    which other columns are present, which the feature screen relies on."""
    smaller = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, size=(150, 12)).astype(float)
        X[:, :6] += rng.normal(scale=0.3, size=(150, 6))
        y = ((X[:, seed % 12] > 2.5) & (X[:, (seed + 5) % 12] > 1.5)).astype(float)
        full = model_to_dict(fit_gbdt(X, y, params, seed=seed))
        columns = {node["feature"] for tree in full["trees"] for node in tree
                   if "feature" in node}
        columns |= set(rng.choice(12, size=2, replace=False).tolist())
        S = sorted(columns)
        smaller += len(S) < 12
        for tree in full["trees"]:
            for node in tree:
                if "feature" in node:
                    node["feature"] = S.index(node["feature"])
        full["n_features"] = len(S)
        assert model_to_dict(fit_gbdt(X[:, S], y, params, seed=seed)) == full, seed
    assert smaller >= 12


def test_fit_without_feature_columns_grows_single_leaves():
    """A schema with no feature columns gives an (n, 0) matrix: nothing
    to split, so every tree is one leaf, as the node-based fit had it."""
    import tree_oracle

    X, y = np.zeros((10, 0)), np.array([0.0, 1.0] * 5)
    for params in ({"n_trees": 3}, {"n_trees": 3, "subsample_fraction": 0.5}):
        model = fit_gbdt(X, y, params, seed=1)
        assert all(tree.feature.tolist() == [-1] for tree in model.trees)
        old = tree_oracle.fit_gbdt(X, y, {**GBDTParams().__dict__, **params}, seed=1)
        assert model_to_dict(model) == tree_oracle.model_to_dict(old)


def test_margin_is_base_plus_scaled_leaves():
    X, y = _toy(5, n=80)
    model = fit_gbdt(X, y, {"n_trees": 12, "learning_rate": 0.25})
    x = X[:3]
    margins = model.predict_margin(x)
    lr = model.params.learning_rate
    for row, got in zip(x, margins):
        total = model.base_score
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] < tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            total += lr * tree.value[node]
        assert abs(total - got) < 1e-12
    proba = model.predict_proba(x)
    assert np.allclose(proba, 1.0 / (1.0 + np.exp(-margins)), atol=1e-12)
    assert np.array_equal(model.predict(x, threshold=0.5),
                          (proba >= 0.5).astype(int))


def test_predict_accepts_single_row():
    X, y = _toy(6, n=50)
    model = fit_gbdt(X, y, {"n_trees": 5})
    single = model.predict_proba(X[0])
    assert single.shape == (1,)
    assert single[0] == model.predict_proba(X[:1])[0]
    with pytest.raises(ValueError):
        model.predict_proba(X[:, :3])


def test_feature_gains_find_signal():
    X, y = _toy(7, n=300, d=6)
    model = fit_gbdt(X, y, {"n_trees": 30})
    gains = feature_gains(model)
    assert gains.shape == (6,)
    assert (gains >= 0).all()
    assert int(np.argmax(gains)) == 2
    assert gains[2] > gains.sum() * 0.5


def test_serialization_round_trip():
    X, y = _toy(8)
    model = fit_gbdt(X, y, {"n_trees": 15, "learning_rate": 0.17})
    doc = model_to_dict(model)
    assert doc["format"] == "adam-gbdt"
    text = json.dumps(doc, sort_keys=True)
    restored = model_from_dict(json.loads(text))
    assert np.array_equal(model.predict_margin(X), restored.predict_margin(X))
    assert model_to_dict(restored) == doc
    assert restored.params == model.params
    assert restored.loss_history == model.loss_history


def test_deserialization_guards():
    X, y = _toy(9, n=40)
    doc = model_to_dict(fit_gbdt(X, y, {"n_trees": 2}))
    with pytest.raises(FormatError):
        model_from_dict({"format": "something-else"})
    with pytest.raises(FormatError):
        model_from_dict(["not", "a", "dict"])
    broken = json.loads(json.dumps(doc))
    broken["trees"][0].append({"cover": "1", "value": "0"})
    with pytest.raises(ModelIntegrityError):
        model_from_dict(broken)


def _doc(edit):
    X, y = _toy(13, n=60, d=3)
    doc = json.loads(json.dumps(model_to_dict(fit_gbdt(X, y, {"n_trees": 2}))))
    edit(doc)
    return doc


def _first_split(doc):
    return next(e for e in doc["trees"][0] if "feature" in e)


def _first_leaf(doc):
    return next(e for e in doc["trees"][0] if "feature" not in e)


@pytest.mark.parametrize("edit,error", [
    pytest.param(lambda d: d.pop("params"), FormatError, id="no-params"),
    pytest.param(lambda d: d["params"].pop("max_depth"), FormatError, id="no-max-depth"),
    pytest.param(lambda d: d["params"].update(learning_rate="fast"), FormatError,
                 id="text-learning-rate"),
    pytest.param(lambda d: d["params"].update(learning_rate="0"), FormatError,
                 id="invalid-learning-rate"),
    pytest.param(lambda d: d.pop("trees"), FormatError, id="no-trees"),
    pytest.param(lambda d: d.pop("n_features"), FormatError, id="no-n-features"),
    pytest.param(lambda d: d.update(n_features=-1), FormatError, id="negative-n-features"),
    pytest.param(lambda d: d.update(version=2), FormatError, id="version-2"),
    pytest.param(lambda d: d["trees"][0].__setitem__(0, 7), FormatError, id="node-not-object"),
    pytest.param(lambda d: _first_leaf(d).pop("value"), FormatError, id="leaf-without-value"),
    pytest.param(lambda d: _first_split(d).update(feature="x"), FormatError,
                 id="text-feature"),
    # integers are read as JSON integers only, never truncated or parsed
    pytest.param(lambda d: _first_split(d).update(feature=1.9), FormatError,
                 id="float-feature"),
    pytest.param(lambda d: _first_split(d).update(feature=True), FormatError,
                 id="bool-feature"),
    pytest.param(lambda d: _first_split(d).update(feature="1"), FormatError,
                 id="digit-text-feature"),
    pytest.param(lambda d: d["params"].update(n_trees=2.7), FormatError,
                 id="float-n-trees"),
    pytest.param(lambda d: d["params"].update(max_depth=True), FormatError,
                 id="bool-max-depth"),
    pytest.param(lambda d: d.update(n_features=3.0), FormatError, id="float-n-features"),
    pytest.param(lambda d: d.update(seed=4.5), FormatError, id="float-seed"),
    pytest.param(lambda d: d.update(seed="4"), FormatError, id="text-seed"),
    pytest.param(lambda d: d.update(base_score="nan"), ModelIntegrityError,
                 id="nan-base-score"),
    pytest.param(lambda d: _first_split(d).update(feature=3), ModelIntegrityError,
                 id="feature-out-of-range"),
    pytest.param(lambda d: _first_split(d).update(feature=-2), ModelIntegrityError,
                 id="negative-feature"),
    pytest.param(lambda d: d["trees"][0].pop(), ModelIntegrityError, id="truncated"),
    pytest.param(lambda d: d["trees"].__setitem__(0, []), ModelIntegrityError,
                 id="empty-tree"),
    pytest.param(lambda d: _first_split(d).update(threshold="nan"), ModelIntegrityError,
                 id="nan-threshold"),
    pytest.param(lambda d: _first_leaf(d).update(value="inf"), ModelIntegrityError,
                 id="inf-value"),
    pytest.param(lambda d: _first_split(d).update(gain="nan"), ModelIntegrityError,
                 id="nan-gain"),
    pytest.param(lambda d: _first_leaf(d).update(cover="0"), ModelIntegrityError,
                 id="zero-cover"),
    pytest.param(lambda d: _first_leaf(d).update(cover="-1"), ModelIntegrityError,
                 id="negative-cover"),
    pytest.param(lambda d: _first_split(d).update(cover="nan"), ModelIntegrityError,
                 id="nan-cover"),
])
def test_model_from_dict_rejects(edit, error):
    with pytest.raises(error):
        model_from_dict(_doc(edit))


def test_tree_check_rejects_bad_children():
    X, y = _toy(14, n=60, d=3)
    tree = fit_gbdt(X, y, {"n_trees": 1, "max_depth": 2}).trees[0]
    tree.check(3)
    for field, node, target in (("left", 0, 0), ("right", 0, 1), ("right", 0, 99),
                                ("left", int(np.flatnonzero(tree.feature < 0)[0]), 1)):
        arrays = {name: getattr(tree, name).copy() for name in (
            "feature", "threshold", "left", "right", "value", "cover", "gain")}
        arrays[field][node] = target
        with pytest.raises(ModelIntegrityError):
            Tree(**arrays).check(3)


def test_param_dict_merges_over_defaults():
    X, y = _toy(10, n=60)
    model = fit_gbdt(X, y, {"max_depth": 2})
    assert model.params.max_depth == 2
    assert model.params.n_trees == DEFAULT_PARAMS["n_trees"]
    assert model.params.learning_rate == DEFAULT_PARAMS["learning_rate"]
    explicit = fit_gbdt(X, y, GBDTParams(n_trees=3))
    assert len(explicit.trees) == 3


@pytest.mark.parametrize("overrides", [
    {"n_trees": 0},
    {"max_depth": 0},
    {"learning_rate": 0.0},
    {"learning_rate": 1.5},
    {"l2_lambda": -1.0},
    {"min_child_weight": -0.1},
    {"subsample_fraction": 0.0},
    {"subsample_fraction": 1.2},
])
def test_param_validation(overrides):
    with pytest.raises(ValueError):
        GBDTParams(**{**DEFAULT_PARAMS, **overrides}).validate()


def test_fit_input_guards():
    X, y = _toy(11, n=30)
    with pytest.raises(EmptyInputError):
        fit_gbdt(np.empty((0, 4)), np.empty(0))
    with pytest.raises(ValueError):
        fit_gbdt(X, y[:-1])
    with pytest.raises(ValueError):
        fit_gbdt(X, y + 1)
    holed = X.copy()
    holed[0, 0] = np.nan
    with pytest.raises(DegenerateFitError):
        fit_gbdt(holed, y)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("fit", [fit_gbdt, fit_random_forest, fit_logistic_regression])
def test_fit_rejects_non_finite_features(fit, value):
    X, y = _toy(13, n=30)
    X[4, 2] = value
    with pytest.raises(DegenerateFitError, match="NaN or infinity"):
        fit(X, y)


def test_log_loss_matches_hand_value():
    y = np.array([1.0, 0.0])
    p = np.array([0.8, 0.4])
    expected = -(np.log(0.8) + np.log(0.6)) / 2.0
    assert abs(log_loss(y, p) - expected) < 1e-15
    assert log_loss(np.array([1.0]), np.array([1.0])) < 1e-10


def test_single_class_labels_fit():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(20, 3))
    model = fit_gbdt(X, np.ones(20), {"n_trees": 10})
    assert (model.predict_proba(X) > 0.9).all()
