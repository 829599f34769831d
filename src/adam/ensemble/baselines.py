"""Baseline classifiers: a random forest and a logistic regression.

Both are reference points for the boosted ensemble; they share its
feature-matrix conventions (no NaN, binary labels) and are
deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ..errors import DegenerateFitError
from .gbdt import fit_inputs, sigmoid
from .tree import (FitRows, Tree, as_matrix, dense_ranks, leaf_values, sort_segments,
                   split_search, stack)

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


# Most elements (mtry x node rows, summed over the nodes) that one batched
# split search scores at once; keeps its temporaries to a few MB.
_BATCH_ELEMENTS = 16_384


def _gini_decrease(y, min_samples_leaf, positives, parent_gini, seg):
    """Gini decrease of each split of a batch (see ``tree.split_search``)
    and the positives left of it. Label sums are exact integers, so one
    running sum less each segment's offset has a per-node search's bits."""
    pos_left = np.cumsum(y[seg.row])
    pos_left -= np.concatenate(([0.0], pos_left))[seg.seg_start][seg.segment]
    node = seg.segment // seg.drawn.shape[1]
    n_left = np.arange(1, pos_left.size + 1) - seg.seg_start[seg.segment]
    n = seg.sizes[node]
    n_right = n - n_left
    pos_right = positives[node] - pos_left
    valid = seg.valid & (n_left >= min_samples_leaf)
    valid &= n_right >= min_samples_leaf
    with np.errstate(divide="ignore", invalid="ignore"):  # n_right is 0 at each segment's end
        gini_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
        gini_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
        scores = parent_gini[node] - (n_left * gini_left + n_right * gini_right) / n
    scores[~valid] = -np.inf
    return scores, pos_left


def _batches(searches, mtry):
    """Consecutive runs of searches with at most _BATCH_ELEMENTS elements
    each (a larger node is a batch of its own)."""
    batch, load = [], 0
    for search in searches:
        size = search[3] * mtry
        if batch and load + size > _BATCH_ELEMENTS:
            yield batch
            batch, load = [], 0
        batch.append(search)
        load += size
    if batch:
        yield batch


def _grow_forest(X, y, boots, rngs, max_depth, min_samples_leaf, mtry) -> list[Tree]:
    """CART trees on the bootstrap rows boots[t], grown in lockstep.

    Tree t is the tree depth-first growth gives: Gini impurity decrease
    over mtry features that rngs[t] draws per splittable node, nodes and
    draws in preorder (left subtree before right); with no feature column
    no node is searched, and each tree is one leaf. Each step visits the
    next preorder node of every live tree, so every tree still draws in
    its own order, and the step's split searches run in batches of a few
    array operations each.
    """
    n_trees, n = boots.shape
    d = X.shape[1]
    XT = np.ascontiguousarray(X.T)
    data = FitRows(XT=XT, ranks=dense_ranks(XT),
                   part=boots.ravel().astype(np.min_scalar_type(n - 1)))
    nodes: list[list[list]] = [[] for _ in range(n_trees)]  # Tree fields, preorder
    # per tree, the nodes still to visit, next one last: start and stop in
    # part, depth, positive count, and the node whose right child it is
    pending = [[(t * n, t * n + n, 0, pos, -1)]
               for t, pos in enumerate(y[boots].sum(axis=1))]
    live = list(range(n_trees))
    while live:
        searches = []
        for t in live:
            start, stop, depth, pos, parent = pending[t].pop()
            size = stop - start
            node = len(nodes[t])
            if parent >= 0:
                nodes[t][parent][3] = node
            nodes[t].append([-1, 0.0, -1, -1, float(pos / size), float(size), 0.0])
            if d and depth < max_depth and size >= 2 * min_samples_leaf and 0.0 < pos < size:
                # scalar ** 2 is libm pow, which can round unlike an array's
                # x * x, so the node Gini stays a scalar expression
                gini = 1.0 - (pos / size) ** 2 - ((size - pos) / size) ** 2
                drawn = np.sort(rngs[t].choice(d, size=mtry, replace=False))
                searches.append((t, node, start, size, depth, pos, gini, drawn))
        for batch in _batches(searches, mtry):
            tree, node, start, size, depth, pos, gini, drawn = zip(*batch)
            seg = sort_segments(data, np.array(start), np.array(size), np.array(drawn))
            scorer = partial(_gini_decrease, y, min_samples_leaf, np.array(pos), np.array(gini))
            found, feature, threshold, gain, n_left, pos_left = split_search(
                data, seg, scorer, 1e-12)
            # pos_left stays a numpy scalar, the type the node Gini was
            # computed from in the per-node search
            for b, feature, threshold, gain, n_left, pos_left in zip(
                    found.tolist(), feature.tolist(), threshold.tolist(), gain.tolist(),
                    n_left.tolist(), pos_left):
                if not 0 < n_left < size[b]:
                    continue
                t, at, lo, hi = tree[b], node[b], start[b], start[b] + size[b]
                nodes[t][at] = [feature, threshold, at + 1, -1, 0.0, float(size[b]), gain]
                pending[t].append((lo + n_left, hi, depth[b] + 1, pos[b] - pos_left, at))
                pending[t].append((lo, lo + n_left, depth[b] + 1, pos_left, -1))
        live = [t for t in live if pending[t]]
    return [Tree.from_nodes(tree_nodes) for tree_nodes in nodes]


def fit_random_forest(X, y, n_trees: int = RF_DEFAULTS["n_trees"],
                      max_depth: int = RF_DEFAULTS["max_depth"],
                      min_samples_leaf: int = RF_DEFAULTS["min_samples_leaf"],
                      seed: int = 0) -> RandomForestModel:
    """Bootstrap-aggregated CART trees with sqrt(d) features per node;
    tree t draws its bootstrap and features from default_rng([seed, t])."""
    X, y = fit_inputs(X, y)
    n, d = X.shape
    mtry = max(1, int(math.sqrt(d)))
    rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
    boots = np.array([rng.integers(0, n, size=n) for rng in rngs],
                     dtype=np.int64).reshape(len(rngs), n)
    trees = _grow_forest(X, y, boots, rngs, max_depth, min_samples_leaf, mtry)
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
