"""Reference classifiers and the binary metric suite."""

import itertools

import numpy as np
import pytest

from adam.config import RunConfig
from adam.ensemble.baselines import (
    LR_DEFAULTS,
    RF_DEFAULTS,
    fit_logistic_regression,
    fit_random_forest,
)
from adam.ensemble.metrics import (
    BinaryMetrics,
    accuracy,
    auc_score,
    evaluate_binary,
    precision_recall_f1,
)
from adam.errors import DegenerateFitError, EmptyInputError
from adam.evaluation import fit_seed
from lr_gd_oracle import fit_logistic_regression_gd


def _blobs(seed=0, n=200, d=4, gap=2.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, d))
    X[:, 1] += gap * y
    return X, y.astype(int)


# --- metrics ---------------------------------------------------------------

def test_metrics_hand_case():
    y = [1, 1, 1, 0, 0]
    yhat = [1, 1, 0, 1, 0]
    assert accuracy(y, yhat) == 0.6
    precision, recall, f1 = precision_recall_f1(y, yhat)
    assert precision == 2 / 3
    assert recall == 2 / 3
    assert abs(f1 - 2 / 3) < 1e-15


def test_metrics_zero_denominators():
    precision, recall, f1 = precision_recall_f1([1, 1], [0, 0])
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)
    precision, recall, f1 = precision_recall_f1([0, 0], [1, 1])
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)


def _auc_pairwise(y, s):
    """O(n^2) definition: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [si for yi, si in zip(y, s) if yi == 1]
    neg = [si for yi, si in zip(y, s) if yi == 0]
    wins = sum((p > q) + 0.5 * (p == q)
               for p, q in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


def test_auc_against_pairwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(80):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        s = np.round(rng.random(n), int(rng.integers(1, 4)))  # force ties
        assert abs(auc_score(y, s) - _auc_pairwise(y, s)) < 1e-12


def test_auc_edge_values():
    assert auc_score([0, 1], [0.1, 0.9]) == 1.0
    assert auc_score([0, 1], [0.9, 0.1]) == 0.0
    assert auc_score([0, 1], [0.5, 0.5]) == 0.5
    assert auc_score([1, 1], [0.5, 0.6]) is None
    assert auc_score([0, 0], [0.5, 0.6]) is None


def test_evaluate_binary_thresholding():
    y = [1, 0, 1, 0]
    s = [0.9, 0.4, 0.5, 0.1]
    m = evaluate_binary(y, s, threshold=0.5)
    assert isinstance(m, BinaryMetrics)
    assert m.accuracy == 1.0  # 0.5 >= 0.5 counts as positive
    assert m.f1 == 1.0
    assert m.auc == 1.0
    strict = evaluate_binary(y, s, threshold=0.51)
    assert strict.recall == 0.5


def test_metric_input_guards():
    with pytest.raises(EmptyInputError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1, 0], [1])
    with pytest.raises(ValueError):
        accuracy([1, 2], [1, 0])


# --- random forest ---------------------------------------------------------

def test_random_forest_learns_and_is_seeded():
    X, y = _blobs(2)
    model = fit_random_forest(X, y, n_trees=30, seed=0)
    assert (model.predict(X) == y).mean() >= 0.95
    proba = model.predict_proba(X)
    assert ((proba >= 0.0) & (proba <= 1.0)).all()
    again = fit_random_forest(X, y, n_trees=30, seed=0)
    assert np.array_equal(proba, again.predict_proba(X))
    other = fit_random_forest(X, y, n_trees=30, seed=1)
    assert not np.array_equal(proba, other.predict_proba(X))


def test_random_forest_defaults_and_guards():
    assert RF_DEFAULTS == {"n_trees": 100, "max_depth": 12, "min_samples_leaf": 1}
    X, y = _blobs(3, n=30)
    with pytest.raises(EmptyInputError):
        fit_random_forest(np.empty((0, 2)), np.empty(0))
    holed = X.copy()
    holed[1, 1] = np.nan
    with pytest.raises(DegenerateFitError):
        fit_random_forest(holed, y)
    with pytest.raises(ValueError):
        fit_random_forest(X, y + 5)


def test_random_forest_single_row_predict():
    X, y = _blobs(4, n=60)
    model = fit_random_forest(X, y, n_trees=10)
    assert model.predict_proba(X[0]).shape == (1,)


def test_random_forest_without_feature_columns_grows_single_leaves():
    """A schema with no feature columns gives an (n, 0) matrix: no feature
    to draw, so tree t is one leaf holding its bootstrap's positive fraction."""
    X, y = np.zeros((10, 0)), np.array([0.0, 1.0, 1.0, 0.0, 1.0] * 2)
    model = fit_random_forest(X, y, n_trees=7, seed=3)
    boots = [np.random.default_rng([3, t]).integers(0, 10, size=10) for t in range(7)]
    assert [tree.feature.tolist() for tree in model.trees] == [[-1]] * 7
    assert [tree.value.tolist() for tree in model.trees] == [[y[b].mean()] for b in boots]
    want = np.cumsum([y[b].mean() for b in boots])[-1] / 7
    assert model.predict_proba(np.zeros((3, 0))).tolist() == [want] * 3


# --- logistic regression ---------------------------------------------------

def test_logistic_regression_learns():
    X, y = _blobs(5, gap=4.0)
    model = fit_logistic_regression(X, y)
    assert model.converged
    assert (model.predict(X) == y).mean() >= 0.95
    proba = model.predict_proba(X)
    assert ((proba > 0.0) & (proba < 1.0)).all()
    # monotone in the decision function
    z = model.decision_function(X)
    order = np.argsort(z)
    assert (np.diff(proba[order]) >= 0).all()


def test_logistic_regression_deterministic():
    X, y = _blobs(6, n=80)
    a = fit_logistic_regression(X, y)
    b = fit_logistic_regression(X, y)
    assert np.array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept


def test_logistic_regression_recovers_direction():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 3))
    logits = 2.5 * X[:, 0] - 1.5 * X[:, 2]
    y = (rng.random(400) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    model = fit_logistic_regression(X, y)
    w = model.weights / model.feature_scales
    assert w[0] > 0 and w[2] < 0
    assert abs(w[1]) < 0.5


def test_logistic_regression_constant_feature():
    X, y = _blobs(8, n=60)
    X[:, 0] = 3.0  # zero variance must not divide by zero
    model = fit_logistic_regression(X, y)
    assert np.isfinite(model.predict_proba(X)).all()


def test_logistic_regression_guards():
    assert LR_DEFAULTS == {"l2_reg": 1e-3, "max_iter": 5000, "tol": 1e-8}
    with pytest.raises(EmptyInputError):
        fit_logistic_regression(np.empty((0, 2)), np.empty(0))
    X, y = _blobs(9, n=30)
    holed = X.copy()
    holed[0, 0] = np.nan
    with pytest.raises(DegenerateFitError):
        fit_logistic_regression(holed, y)


# --- logistic regression: the Newton/IRLS solver ---------------------------

def _theta_design(model, X):
    """(theta, A) with theta = (w, b) and A = [standardized X, 1]."""
    Z = (np.asarray(X, dtype=float) - model.feature_means) / model.feature_scales
    return (np.append(model.weights, model.intercept),
            np.column_stack([Z, np.ones(len(Z))]))


def _penalized_gradient(model, X, y, l2_reg=LR_DEFAULTS["l2_reg"]):
    """Gradient of mean log-loss + l2_reg/2 * |w|^2 at the fitted model,
    with the logistic function written as 0.5 * (1 + tanh(z / 2))."""
    theta, A = _theta_design(model, X)
    p = 0.5 * (1.0 + np.tanh(A @ theta / 2.0))
    ridge = np.append(np.full(len(model.weights), l2_reg), 0.0)
    return A.T @ (p - np.asarray(y, dtype=float)) / len(A) + ridge * theta


def _penalized_loss(model, X, y, l2_reg=LR_DEFAULTS["l2_reg"]):
    theta, A = _theta_design(model, X)
    z = A @ theta
    log_loss = np.logaddexp(0.0, z) - np.asarray(y, dtype=float) * z
    return float(log_loss.mean() + 0.5 * l2_reg * model.weights @ model.weights)


@pytest.fixture(scope="module")
def protocol_lr_inputs(sample_set):
    """LR training matrices of protocol seeds 1-10 on synth --seed 0, built
    by the per-seed recipe that evaluate uses."""
    inputs = []
    for seed in range(1, 11):
        fit = fit_seed(sample_set, RunConfig(), seed, with_gbdt=False)
        inputs.append((seed, fit.X_train, fit.y_train))
    return inputs


def test_logistic_regression_converges_on_protocol_seeds(protocol_lr_inputs):
    tol = LR_DEFAULTS["tol"]
    for seed, X, y in protocol_lr_inputs:
        model = fit_logistic_regression(X, y)
        assert model.converged, seed
        assert model.n_iterations <= 50, (seed, model.n_iterations)
        assert np.abs(_penalized_gradient(model, X, y)).max() <= tol, seed


def test_logistic_regression_beats_gradient_descent(protocol_lr_inputs):
    for seed, X, y in protocol_lr_inputs:
        newton = fit_logistic_regression(X, y)
        descent = fit_logistic_regression_gd(X, y)
        assert descent.n_iterations == LR_DEFAULTS["max_iter"]
        assert _penalized_loss(newton, X, y) <= _penalized_loss(descent, X, y), seed


def test_logistic_regression_gradient_vanishes_at_solution():
    for seed, l2_reg in ((20, LR_DEFAULTS["l2_reg"]), (21, 0.5), (22, 1e-6)):
        X, y = _blobs(seed, n=150, d=6, gap=1.0)
        X[:, 2] = 40.0 * X[:, 2] + 1e3  # badly scaled input column
        model = fit_logistic_regression(X, y, l2_reg=l2_reg)
        assert model.converged
        gradient = _penalized_gradient(model, X, y, l2_reg=l2_reg)
        assert np.abs(gradient).max() <= LR_DEFAULTS["tol"]


@pytest.mark.parametrize("label", [0, 1])
def test_logistic_regression_single_class(label):
    X, _ = _blobs(23, n=50)
    y = np.full(50, label)
    model = fit_logistic_regression(X, y)
    assert model.converged
    assert np.isfinite(model.intercept) and np.isfinite(model.weights).all()
    assert np.sign(model.intercept) == (1 if label else -1)
    assert (model.predict(X) == label).all()


@pytest.mark.parametrize("l2_reg", [LR_DEFAULTS["l2_reg"], 0.0])
def test_logistic_regression_separable_blobs(l2_reg):
    X, y = _blobs(24, gap=12.0)
    assert X[y == 1, 1].min() > X[y == 0, 1].max()  # separable along column 1
    model = fit_logistic_regression(X, y, l2_reg=l2_reg)
    # without a penalty the optimum is at infinity: stopping anywhere is
    # allowed, but the weights must stay finite and classify perfectly
    assert model.converged or l2_reg == 0.0
    assert np.isfinite(model.weights).all() and np.isfinite(model.intercept)
    assert (model.predict(X) == y).all()


def test_logistic_regression_duplicated_column():
    X, y = _blobs(25)
    X = np.column_stack([X, X[:, 1]])
    model = fit_logistic_regression(X, y)
    assert model.converged
    assert abs(model.weights[1] - model.weights[-1]) < 1e-9  # the ridge splits evenly
    assert np.abs(_penalized_gradient(model, X, y)).max() <= LR_DEFAULTS["tol"]


def test_logistic_regression_singular_hessian():
    X, y = _blobs(26, n=60)
    X[:, 0] = 3.0  # standardizes to an exact zero column, unpenalized
    with pytest.raises(DegenerateFitError, match="Hessian is singular"):
        fit_logistic_regression(X, y, l2_reg=0.0)


def test_logistic_regression_iteration_cap():
    X, y = _blobs(27)
    model = fit_logistic_regression(X, y, max_iter=2)
    assert model.n_iterations == 2 and not model.converged
    full = fit_logistic_regression(X, y)
    assert full.converged and 2 < full.n_iterations <= 50
