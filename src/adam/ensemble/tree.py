"""Decision trees as parallel arrays: the one tree form of the package.

A tree is seven arrays indexed by node in preorder (the root is node 0,
then the whole left subtree, then the right subtree). Rows whose value
of ``feature`` is below ``threshold`` go left. Leaves have feature,
left and right -1; internal nodes have value 0. ``cover`` is the weight
routed through a node (hessian mass for boosting, row count for the
forest) and ``gain`` the split gain of an internal node.

Boosting fits by presorted exact greedy (Chen & Guestrin 2016, XGBoost,
3.1): every feature is stably sorted once, and each split hands its
children the parent's order filtered by side. Filtering a stable order
gives the same sequence as stably sorting the child's rows, so split
scores sum the same values in the same order as a per-node sort would.
The forest sorts its nodes' rows batch by batch instead (see
``baselines``). Prediction walks all trees at once, one level per numpy
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ModelIntegrityError


@dataclass(frozen=True, eq=False)
class Tree:
    feature: np.ndarray  # int64 split feature, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray  # int64 child node, -1 at leaves
    right: np.ndarray
    value: np.ndarray  # leaf output, 0 at internal nodes
    cover: np.ndarray
    gain: np.ndarray  # split gain, 0 at leaves

    @classmethod
    def from_nodes(cls, nodes) -> "Tree":
        """Tree from per-node [feature, threshold, left, right, value,
        cover, gain] lists in preorder."""
        return cls(*(np.array(col, dtype=np.int64 if i in (0, 2, 3) else float)
                     for i, col in enumerate(zip(*nodes))))

    def expected_value(self) -> float:
        """Cover-weighted mean leaf value (the output on no information)."""
        leaves = self.feature < 0
        return float(np.dot(self.value[leaves], self.cover[leaves]) / self.cover[0])

    def check(self, n_features: int) -> None:
        """Raise ModelIntegrityError unless this is a well-formed preorder
        tree over n_features inputs with finite numbers and positive cover
        (attribution divides by cover at every split)."""
        n = self.feature.size
        if n == 0 or any(a.shape != (n,) for a in (
                self.threshold, self.left, self.right, self.value, self.cover, self.gain)):
            raise ModelIntegrityError("tree arrays are empty or differ in length")
        internal = self.feature >= 0
        if (self.feature < -1).any() or (self.feature >= n_features).any():
            raise ModelIntegrityError(
                f"split feature outside 0..{n_features - 1}")
        nodes = np.arange(n)
        lo, hi = self.left[internal], self.right[internal]
        if ((self.left[~internal] != -1).any() or (self.right[~internal] != -1).any()
                or (lo != nodes[internal] + 1).any() or (hi <= lo).any() or (hi >= n).any()
                or (np.bincount(np.concatenate([lo, hi]), minlength=n)[1:] != 1).any()):
            raise ModelIntegrityError("tree child indices do not form a preorder tree")
        if not (np.isfinite(self.cover).all() and (self.cover > 0.0).all()):
            raise ModelIntegrityError("tree node cover must be positive and finite")
        if not (np.isfinite(self.threshold[internal]).all()
                and np.isfinite(self.value[~internal]).all()
                and np.isfinite(self.gain).all()):
            raise ModelIntegrityError("tree threshold, value or gain is not finite")


def presort(X: np.ndarray) -> np.ndarray:
    """(features, rows) stable ascending row order of every column."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="mergesort").T)


def partition(order: np.ndarray, rows: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Split each feature's order into the listed rows and the rest,
    keeping the order within each part."""
    inside = np.zeros(n_rows, dtype=bool)
    inside[rows] = True
    keep = inside[order]
    d, m = order.shape
    return (order[keep].reshape(d, rows.size),
            order[~keep].reshape(d, m - rows.size))


def grow_tree(X, order, rows, max_depth, node_stats, find_split):
    """Grow one tree depth-first, left subtree before right.

    :param X: (n, d) fit matrix; order: its presort restricted to rows.
    :param rows: ascending row ids that reach the root.
    :param node_stats: idx -> (value, cover, splittable) for a node's rows.
    :param find_split: (idx, order) -> (feature, threshold, gain) or None;
        called once per splittable node below max_depth, in preorder.
    :returns: (tree, fitted) with fitted[i] the leaf value reached by row i
        of ``rows`` (other entries 0).
    """
    nodes: list[list] = []  # Tree fields per node, in preorder
    fitted = np.zeros(X.shape[0])

    def grow(idx, order, depth) -> int:
        value, cover, splittable = node_stats(idx)
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, value, cover, 0.0])
        found = find_split(idx, order) if depth < max_depth and splittable else None
        if found is not None:
            j, thr, gain = found
            mask = X[idx, j] < thr
            if mask.any() and not mask.all():
                left_order, right_order = partition(order, idx[mask], X.shape[0])
                left = grow(idx[mask], left_order, depth + 1)
                right = grow(idx[~mask], right_order, depth + 1)
                nodes[node] = [j, thr, left, right, 0.0, cover, gain]
                return node
        fitted[idx] = value
        return node

    grow(rows, order, 0)
    return Tree.from_nodes(nodes), fitted


def pick_best(scores: np.ndarray, xs: np.ndarray, floor: float, features):
    """The winning split among the rows of ``scores``.

    Row r scores the sorted positions of ``features[r]`` (ascending
    features, invalid positions at -inf). Each row offers its first
    maximum; a row wins only by beating ``floor`` and every earlier
    winner strictly, so ties keep the lowest feature and a NaN score
    never wins. Returns (feature, threshold midway to the next sorted
    value, score) or None.
    """
    at = np.argmax(scores, axis=1)
    best = None
    for r, score in enumerate(scores[np.arange(scores.shape[0]), at].tolist()):
        if score > floor:
            floor = score
            best = r
    if best is None:
        return None
    i = at[best]
    return int(features[best]), float(0.5 * (xs[best, i] + xs[best, i + 1])), floor


class _Stacked(NamedTuple):
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray


def stack(trees) -> _Stacked:
    """All trees in one set of arrays; child indices become global (and
    meaningless at leaves, which the walk never leaves)."""
    roots = np.cumsum([0] + [t.feature.size for t in trees])[:-1]

    def cat(field, offset=False):
        parts = [getattr(t, field) + (r if offset else 0) for t, r in zip(trees, roots)]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    return _Stacked(cat("feature"), cat("threshold"), cat("left", True),
                    cat("right", True), cat("value"), roots)


def leaf_values(stacked: _Stacked, X: np.ndarray) -> np.ndarray:
    """(trees, rows) value of the leaf each row reaches in each tree."""
    cur = np.repeat(stacked.roots[:, None], X.shape[0], axis=1)
    cols = np.arange(X.shape[0])
    while True:
        feat = stacked.feature[cur]
        internal = feat >= 0
        if not internal.any():
            return stacked.value[cur]
        go_left = X[cols, feat] < stacked.threshold[cur]
        cur = np.where(internal, np.where(go_left, stacked.left[cur], stacked.right[cur]), cur)


def as_matrix(X, n_features: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {X.shape}")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"model expects {n_features} features, got {X.shape[1]}")
    return X
