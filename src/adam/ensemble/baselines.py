"""Baseline classifiers: a random forest and a logistic regression.

Both are reference points for the boosted ensemble; they share its
feature-matrix conventions (no NaN, binary labels) and are
deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..errors import DegenerateFitError
from .gbdt import fit_inputs, sigmoid
from .tree import Tree, as_matrix, leaf_values, stack

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


class _Bootstraps(NamedTuple):
    """What every split search of one forest fit reads."""
    XT: np.ndarray  # (features, rows) fit matrix
    ranks: np.ndarray  # (features, rows) dense rank of each value in its column
    y: np.ndarray  # 0/1 labels
    rows: np.ndarray  # (trees * n) bootstrap row ids, tree after tree
    part: np.ndarray  # (trees * n) each tree's positions 0..n-1, grouped by node
    n: int  # bootstrap size
    min_samples_leaf: int


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """(features, rows) index of each value among its column's distinct
    values: equal values share a rank, and ranks order as values do."""
    ranks = np.empty(X.shape[::-1], dtype=np.min_scalar_type(X.shape[0]))
    for j, column in enumerate(X.T):
        ranks[j] = np.unique(column, return_inverse=True)[1].ravel()
    return ranks


def _sorted_positions(segment, rank, position, n_ranks, n_positions):
    """``position`` ordered by (segment, rank, position): within each
    segment, ascending value with ties in bootstrap order, which is the
    order a stable sort of the node's bootstrap rows gives. One packed
    int64 key is sorted when the three fit in 63 bits."""
    p_bits = int(n_positions - 1).bit_length()
    r_bits = int(n_ranks - 1).bit_length()
    if int(segment[-1]).bit_length() + r_bits + p_bits > 63:
        return position[np.lexsort((position, rank, segment))]
    key = (segment << (r_bits + p_bits)) | (rank.astype(np.int64) << p_bits) | position
    return np.sort(key) & ((1 << p_bits) - 1)


def _ragged(starts, lengths):
    """The ranges starts[k] .. starts[k] + lengths[k] - 1, concatenated,
    and the index k of the range each element belongs to."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    return np.arange(lengths.sum()) + (starts - np.cumsum(lengths) + lengths)[owner], owner


def _split_batch(data: _Bootstraps, trees, starts, sizes, positives, parent_gini, drawn):
    """Best Gini split of each node of a batch, as the arrays (node,
    feature, threshold, gain, n_left, positives_left) over the nodes
    whose best split scores above 1e-12.

    Node b owns part[starts[b]:starts[b] + sizes[b]] of tree trees[b];
    drawn[b] are its mtry features, ascending. Each (node, feature) pair
    is one segment of a ragged array holding the node's rows sorted by
    that feature. Scores use the expressions of a per-node search, and
    the label prefix sums are exact integers, so every score has the
    bits a per-node search gives it. A found node's slice of part is
    rewritten in the order of its winning segment, left rows first.
    """
    mtry = drawn.shape[1]
    seg_len = np.repeat(sizes, mtry)
    seg_start = np.cumsum(seg_len) - seg_len
    slot, segment = _ragged(np.repeat(starts, mtry), seg_len)
    node = segment // mtry
    n_left = slot - starts[node] + 1
    base = trees[node] * data.n
    feature = drawn.ravel()[segment]
    position = data.part[slot]
    position = _sorted_positions(segment, data.ranks[feature, data.rows[base + position]],
                                 position, data.ranks.shape[1], data.n)
    row = data.rows[base + position]
    xs = data.XT[feature, row]
    pos_left = np.cumsum(data.y[row])
    pos_left -= np.concatenate(([0.0], pos_left))[seg_start][segment]
    n = sizes[node]
    n_right = n - n_left
    pos_right = positives[node] - pos_left
    valid = np.empty(xs.size, dtype=bool)
    valid[:-1] = xs[1:] != xs[:-1]
    valid[seg_start + seg_len - 1] = False
    valid &= n_left >= data.min_samples_leaf
    valid &= n_right >= data.min_samples_leaf
    with np.errstate(divide="ignore", invalid="ignore"):  # n_right is 0 at each segment's end
        gini_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
        gini_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
        scores = parent_gini[node] - (n_left * gini_left + n_right * gini_right) / n
    scores[~valid] = -np.inf

    # pick_best per node: each segment's first maximum, the first segment
    # attaining the node's maximum, and it must beat 1e-12
    seg_best = np.maximum.reduceat(scores, seg_start)
    hits = np.flatnonzero(scores == seg_best[segment])
    at = hits[np.searchsorted(hits, seg_start)]
    seg_best = seg_best.reshape(-1, mtry)
    pick = seg_best.argmax(axis=1)
    gain = seg_best[np.arange(sizes.size), pick]
    found = np.flatnonzero(gain > 1e-12)
    win = found * mtry + pick[found]
    threshold = 0.5 * (xs[at[win]] + xs[at[win] + 1])

    # the winning segment holds the node's rows sorted by the split
    # feature, so the rows below the threshold come first
    src, owner = _ragged(seg_start[win], sizes[found])
    data.part[src - seg_start[win][owner] + starts[found][owner]] = position[src]
    n_left = np.bincount(owner[xs[src] < threshold[owner]], minlength=found.size)
    pos_left = np.where(n_left > 0, pos_left[seg_start[win] + n_left - 1], 0.0)
    return found, drawn[found, pick[found]], threshold, gain[found], n_left, pos_left


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
    draws in preorder (left subtree before right). Each step visits the
    next preorder node of every live tree, so every tree still draws in
    its own order, and the step's split searches run in batches of a few
    array operations each.
    """
    n_trees, n = boots.shape
    d = X.shape[1]
    data = _Bootstraps(XT=np.ascontiguousarray(X.T), ranks=_dense_ranks(X), y=y,
                       rows=boots.ravel(), n=n, min_samples_leaf=min_samples_leaf,
                       part=np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), n_trees))
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
            if depth < max_depth and size >= 2 * min_samples_leaf and 0.0 < pos < size:
                # scalar ** 2 is libm pow, which can round unlike an array's
                # x * x, so the node Gini stays a scalar expression
                gini = 1.0 - (pos / size) ** 2 - ((size - pos) / size) ** 2
                drawn = np.sort(rngs[t].choice(d, size=mtry, replace=False))
                searches.append((t, node, start, size, depth, pos, gini, drawn))
        for batch in _batches(searches, mtry):
            tree, node, start, size, depth, pos, gini, drawn = zip(*batch)
            found, feature, threshold, gain, n_left, pos_left = _split_batch(
                data, np.array(tree), np.array(start), np.array(size), np.array(pos),
                np.array(gini), np.array(drawn))
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
