"""Array trees against the frozen node-based reference, compared with ==.

Every case must give the same bytes as ``tree_oracle`` (the tree code
before trees became parallel arrays): serialized models, margins,
probabilities, split gains and Shapley values. Forests must also give
the seven arrays of every tree that one-tree-at-a-time depth-first
growth gave.
"""

import numpy as np
import pytest

import tree_oracle as oracle
from adam.attribution import explain_rows, shap_values
from adam.config import RunConfig
from adam.dataset import feature_medians, impute
from adam.ensemble import baselines
from adam.ensemble.baselines import fit_logistic_regression, fit_random_forest
from adam.ensemble.gbdt import feature_gains, fit_gbdt, model_to_dict, sigmoid
from adam.ensemble.tree import _sorted_positions
from adam.evaluation import fit_seed


def _data(kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        X = rng.integers(0, 4, size=(120, 6)).astype(float)
    elif kind == "constant-column":
        X = rng.normal(size=(90, 5))
        X[:, 2] = 1.5
    elif kind == "duplicate-rows":
        X = np.repeat(rng.normal(size=(30, 4)), 3, axis=0)
    elif kind == "one-row":
        X = rng.normal(size=(1, 3))
    elif kind == "two-rows":
        X = rng.normal(size=(2, 3))
    else:
        X = rng.normal(size=(150, 7))
    y = (X[:, 0] + 0.5 * X[:, -1] + 0.3 * rng.normal(size=X.shape[0]) > 0).astype(float)
    if kind == "two-rows":
        y = np.array([0.0, 1.0])
    return X, y


def _probe(X):
    """Fit rows plus unseen rows, including NaN and infinities."""
    rng = np.random.default_rng(99)
    extra = rng.normal(size=(4, X.shape[1]))
    extra[0, 0] = np.nan
    extra[1, :] = np.inf
    extra[2, :] = -np.inf
    return np.vstack([X, extra])


GBDT_CASES = [
    ("normal", {"n_trees": 15}, 0),
    ("ties", {"n_trees": 15, "max_depth": 4}, 0),
    ("constant-column", {"n_trees": 10}, 0),
    ("duplicate-rows", {"n_trees": 10}, 0),
    ("normal", {"n_trees": 12, "subsample_fraction": 0.7}, 3),
    ("ties", {"n_trees": 12, "subsample_fraction": 0.7}, 5),
    ("normal", {"n_trees": 12, "l2_lambda": 0.0, "min_child_weight": 5.0}, 0),
    ("ties", {"n_trees": 30, "learning_rate": 1.0, "l2_lambda": 0.0,
              "min_child_weight": 0.0}, 0),
    ("one-row", {"n_trees": 3}, 0),
    ("two-rows", {"n_trees": 3}, 0),
]


def _assert_gbdt_identical(X, y, params, seed):
    full = {**oracle.GBDTParams().__dict__, **params}
    with np.errstate(all="ignore"):
        old = oracle.fit_gbdt(X, y, full, seed=seed)
        new = fit_gbdt(X, y, params, seed=seed)
    assert model_to_dict(new) == oracle.model_to_dict(old)
    assert new.loss_history == old.loss_history
    P = _probe(X)
    assert new.predict_margin(P).tobytes() == old.predict_margin(P).tobytes()
    assert new.predict_proba(P).tobytes() == old.predict_proba(P).tobytes()
    assert feature_gains(new).tobytes() == oracle.feature_gains(old).tobytes()
    assert new.expected_margin == oracle.expected_margin(old)
    rows = X[:5]
    assert shap_values(new, rows).tobytes() == oracle.shap_values(old, rows).tobytes()
    att, = explain_rows(new, X[:1], [f"f{j}" for j in range(X.shape[1])])
    assert att.margin == float(old.predict_margin(X[0])[0])
    assert att.probability == float(old.predict_proba(X[0])[0])
    assert att.contributions == tuple(float(v) for v in oracle.shap_values(old, X[0]))


@pytest.mark.parametrize("kind,params,seed", GBDT_CASES)
def test_gbdt_matches_node_reference(kind, params, seed):
    X, y = _data(kind, seed)
    _assert_gbdt_identical(X, y, params, seed)


def test_saturated_fit_matches_node_reference():
    """lambda = 0 on separable data drives p to exactly 0 or 1: zero
    hessians give infinite and NaN gains (and zero-cover nodes, which
    attribution rejects, so only fit and predict are compared)."""
    rng = np.random.default_rng(0)
    X = rng.integers(0, 5, size=(40, 3)).astype(float)
    y = (X[:, 0] >= 2).astype(float)
    params = {"n_trees": 60, "learning_rate": 1.0, "l2_lambda": 0.0,
              "min_child_weight": 0.0}
    with np.errstate(all="ignore"):
        old = oracle.fit_gbdt(X, y, {**oracle.GBDTParams().__dict__, **params})
        new = fit_gbdt(X, y, params)
        assert model_to_dict(new) == oracle.model_to_dict(old)
        assert new.predict_margin(X).tobytes() == old.predict_margin(X).tobytes()
    assert feature_gains(new).tobytes() == oracle.feature_gains(old).tobytes()
    assert min(tree.cover.min() for tree in new.trees) == 0.0


def test_feature_screen_matches_node_reference(sample_set):
    """The 73-feature screening fit of the evaluation protocol."""
    X = sample_set.feature_matrix()
    X = impute(X, feature_medians(X))
    _assert_gbdt_identical(X, sample_set.labels().astype(float), {}, 0)


@pytest.mark.parametrize("kind,kwargs", [
    ("normal", {"n_trees": 12}),
    ("ties", {"n_trees": 12}),
    ("constant-column", {"n_trees": 8, "max_depth": 3}),
    ("duplicate-rows", {"n_trees": 8, "min_samples_leaf": 3}),
    ("one-row", {"n_trees": 3}),
    ("two-rows", {"n_trees": 4}),
])
def test_forest_matches_node_reference(kind, kwargs):
    X, y = _data(kind, 1)
    old = oracle.fit_random_forest(X, y, seed=4, **kwargs)
    new = fit_random_forest(X, y, seed=4, **kwargs)
    assert len(new.trees) == len(old)
    for tree, root in zip(new.trees, old):
        nodes = [(f, t, v if f < 0 else None) for f, t, v in zip(
            tree.feature.tolist(), tree.threshold.tolist(), tree.value.tolist())]
        assert nodes == oracle.forest_nodes(root)
    P = _probe(X)
    assert new.predict_proba(P).tobytes() == oracle.forest_predict_proba(old, P).tobytes()


def test_gbdt_skips_roots_too_light_to_split():
    """Once the hessian mass of a root falls below 2 * min_child_weight
    no split is valid, and the tree is a single leaf."""
    X, y = _data("normal", 0)
    params = {"n_trees": 12, "min_child_weight": 15.0}
    _assert_gbdt_identical(X, y, params, 0)
    trees = fit_gbdt(X, y, params).trees
    light = [tree.cover[0] < 2 * 15.0 for tree in trees]
    assert any(light) and not all(light)
    assert all(tree.feature.size == 1 for tree, skip in zip(trees, light) if skip)


TREE_FIELDS = ("feature", "threshold", "left", "right", "value", "cover", "gain")


def _assert_forest_identical(X, y, **kwargs):
    new = fit_random_forest(X, y, **kwargs).trees
    old = oracle.fit_forest_trees(X, y, **kwargs)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        for field in TREE_FIELDS:
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    return new


def _depth(tree):
    depth = np.zeros(tree.feature.size, dtype=int)
    for i in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return int(depth.max())


def test_forest_matches_depth_first_growth_on_protocol_matrix(sample_set):
    """The evaluation protocol's screened training matrix, 100 trees: the
    root step alone spans several capped batches."""
    fit = fit_seed(sample_set, RunConfig(), 3, with_gbdt=False)
    n, d = fit.X_train.shape
    assert 100 * int(np.sqrt(d)) * n > 2 * baselines._BATCH_ELEMENTS
    _assert_forest_identical(fit.X_train, fit.y_train, seed=3)


@pytest.mark.parametrize("kind,kwargs", [
    ("ties", {"n_trees": 20, "min_samples_leaf": 3}),
    ("duplicate-rows", {"n_trees": 20, "min_samples_leaf": 3}),
    ("constant-column", {"n_trees": 10, "max_depth": 3}),
    ("one-row", {"n_trees": 3}),
    ("two-rows", {"n_trees": 6}),
])
def test_forest_matches_depth_first_growth(kind, kwargs):
    X, y = _data(kind, 2)
    _assert_forest_identical(X, y, seed=5, **kwargs)


def test_forest_trees_finishing_at_different_depths():
    """Alternating labels below the middle, positives above: some
    bootstraps are pure after one split, others reach max_depth."""
    X = np.arange(16, dtype=float).reshape(-1, 1)
    y = np.where(np.arange(16) < 8, np.arange(16) % 2, 1).astype(float)
    trees = _assert_forest_identical(X, y, n_trees=40, max_depth=6, seed=0)
    depths = [_depth(tree) for tree in trees]
    assert min(depths) <= 1 and max(depths) == 6


def test_forest_gain_floor():
    """Every value holds one row of each label, so no split changes the
    class fraction: only rounding gives scores above 0, and a split must
    beat 1e-12."""
    X = np.repeat(np.arange(40.0), 2).reshape(-1, 1)
    y = np.tile([0.0, 1.0], 40)
    _assert_forest_identical(X, y, n_trees=30, seed=0)


def test_forest_node_larger_than_a_batch():
    """A root whose mtry x rows exceeds the batch cap is a batch alone."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(3000, 36)).round(1)
    y = (X[:, 0] + X[:, 5] + rng.normal(size=3000) > 0).astype(float)
    assert 6 * 3000 > baselines._BATCH_ELEMENTS
    _assert_forest_identical(X, y, n_trees=3, max_depth=3, seed=1)


def test_sorted_positions_without_packed_keys():
    """Keys too wide for one int64 fall back to a lexsort, same order."""
    rng = np.random.default_rng(0)
    segment = np.repeat(np.arange(5), 8)
    rank = rng.integers(0, 3, size=40)
    position = np.tile(rng.permutation(8), 5)
    expected = position[np.lexsort((position, rank, segment))]
    packed = _sorted_positions(segment, rank, position, 3, 8)
    wide = _sorted_positions(segment, rank, position, 2 ** 31, 2 ** 31)
    assert packed.tolist() == wide.tolist() == expected.tolist()


def test_sigmoid_bits_match_masked_forms():
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        1e-310, -1e-310, 709.8, -709.8, 745.2, -745.2, 40.0, -40.0])
    z = np.concatenate([special] + [rng.normal(scale=s, size=20000)
                                    for s in (1.0, 30.0, 800.0)])
    with np.errstate(all="ignore"):
        new = sigmoid(z)
        assert new.view(np.int64).tolist() == oracle._sigmoid(z).view(np.int64).tolist()
        assert new.view(np.int64).tolist() == oracle.lr_sigmoid(z).view(np.int64).tolist()


def test_logistic_regression_probabilities_use_the_shared_sigmoid():
    X, y = _data("normal", 2)
    model = fit_logistic_regression(X, y, max_iter=200)
    z = model.decision_function(X)
    assert model.predict_proba(X).tobytes() == oracle.lr_sigmoid(z).tobytes()
