"""Baseline classifiers: a random forest and a logistic regression.

Both are reference points for the boosted ensemble; they share its
feature-matrix conventions (no NaN, binary labels) and are
deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DegenerateFitError
from .gbdt import fit_inputs, sigmoid
from .tree import Tree, as_matrix, grow_tree, leaf_values, pick_best, presort, stack

RF_DEFAULTS = {"n_trees": 100, "max_depth": 12, "min_samples_leaf": 1}
LR_DEFAULTS = {"l2_reg": 1e-3, "max_iter": 5000, "tol": 1e-8}


# ---------------------------------------------------------------------------
# random forest

@dataclass
class RandomForestModel:
    trees: list[Tree]
    n_features: int
    seed: int

    @cached_property
    def _stacked(self):
        return stack(self.trees)

    def predict_proba(self, X) -> np.ndarray:
        X = as_matrix(X, self.n_features)
        votes = np.cumsum(leaf_values(self._stacked, X), axis=0)[-1]  # in tree order
        return votes / len(self.trees)

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)


def _grow_cart(X, y, max_depth, min_samples_leaf, mtry, rng) -> Tree:
    """One CART tree on a bootstrap sample, Gini impurity decrease over
    mtry features drawn per node (drawn depth-first, left before right)."""
    n_rows, d = X.shape
    XT = np.ascontiguousarray(X.T)

    def node_stats(idx):
        n = idx.size
        pos = y[idx].sum()  # labels are 0/1: pure means pos is 0 or n
        return float(pos / n), float(n), n >= 2 * min_samples_leaf and 0.0 < pos < n

    def find_split(idx, order):
        feature_ids = np.sort(rng.choice(d, size=mtry, replace=False))
        n = idx.size
        total_pos = y[idx].sum()
        parent_gini = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
        order = order[feature_ids]
        xs = XT[feature_ids[:, None], order]
        pos_left = np.cumsum(y[order], axis=1)[:, :-1]
        n_left = np.arange(1, n)
        n_right = n - n_left
        pos_right = total_pos - pos_left
        valid = xs[:, 1:] != xs[:, :-1]
        valid &= n_left >= min_samples_leaf
        valid &= n_right >= min_samples_leaf
        gini_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
        gini_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
        scores = parent_gini - (n_left * gini_left + n_right * gini_right) / n
        scores[~valid] = -np.inf
        return pick_best(scores, xs, 1e-12, feature_ids)

    tree, _ = grow_tree(X, presort(X), np.arange(n_rows), max_depth, node_stats, find_split)
    return tree


def fit_random_forest(X, y, n_trees: int = RF_DEFAULTS["n_trees"],
                      max_depth: int = RF_DEFAULTS["max_depth"],
                      min_samples_leaf: int = RF_DEFAULTS["min_samples_leaf"],
                      seed: int = 0) -> RandomForestModel:
    """Bootstrap-aggregated CART trees with sqrt(d) features per node."""
    X, y = fit_inputs(X, y)
    n, d = X.shape
    mtry = max(1, int(math.sqrt(d)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n)
        trees.append(_grow_cart(X[rows], y[rows], max_depth, min_samples_leaf, mtry, rng))
    return RandomForestModel(trees=trees, n_features=d, seed=seed)


# ---------------------------------------------------------------------------
# logistic regression

@dataclass
class LogisticRegressionModel:
    weights: np.ndarray  # on standardized features
    intercept: float
    feature_means: np.ndarray
    feature_scales: np.ndarray
    n_iterations: int = 0
    converged: bool = False

    def decision_function(self, X) -> np.ndarray:
        Z = (as_matrix(X) - self.feature_means) / self.feature_scales
        return Z @ self.weights + self.intercept

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)


def fit_logistic_regression(X, y, l2_reg: float = LR_DEFAULTS["l2_reg"],
                            max_iter: int = LR_DEFAULTS["max_iter"],
                            tol: float = LR_DEFAULTS["tol"]) -> LogisticRegressionModel:
    """Ridge-penalized logistic regression on standardized features, solved
    by Newton's method (IRLS): theta = (w, b) on A = [Z, 1] minimizes the
    mean log-loss plus l2_reg/2 * |w|^2; the intercept is not penalized.
    It stops once the gradient g has max-norm <= tol, else steps
    theta -= H^-1 g with the Hessian H; a singular H is a DegenerateFitError.
    """
    X, y = fit_inputs(X, y)
    n, d = X.shape
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales[scales == 0.0] = 1.0
    A = np.column_stack([(X - means) / scales, np.ones(n)])
    ridge = np.append(np.full(d, float(l2_reg)), 0.0)
    theta = np.zeros(d + 1)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        p = sigmoid(A @ theta)
        grad = A.T @ (p - y) / n + ridge * theta
        if float(np.abs(grad).max()) <= tol:
            converged = True
            break
        try:
            theta -= np.linalg.solve((A.T * (p * (1.0 - p))) @ A / n + np.diag(ridge), grad)
        except np.linalg.LinAlgError as exc:
            raise DegenerateFitError(f"logistic regression Hessian is singular: {exc}") from exc
    return LogisticRegressionModel(weights=theta[:d], intercept=float(theta[d]),
                                   feature_means=means, feature_scales=scales,
                                   n_iterations=it, converged=converged)
