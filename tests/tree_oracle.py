"""Frozen references for the tree code.

GBDT and random-forest fit and predict, serialization and Shapley
values as they were while trees were linked nodes (TreeNode, _CartNode)
flattened per call; and ``fit_forest_trees``, the array forest as it
was grown one tree at a time, depth first, before the trees were grown
in lockstep, with its own copy of the depth-first growth helpers
(``presort``, ``partition``, ``grow_tree`` and ``pick_best``).

The bit-identity tests compare the implementation in src/ with these
functions using ``==``. Keep this file as it is: its only job is to
preserve the old behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from adam.ensemble.gbdt import GBDTParams
from adam.ensemble.tree import Tree
from adam.errors import ModelIntegrityError

_PROB_CLIP = 1e-15


@dataclass
class TreeNode:
    """One node of a regression tree on the logit scale."""

    cover: float
    value: float = 0.0  # leaf weight before the learning rate
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    gain: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0



def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=float)
    for i in range(X.shape[0]):
        cur = node
        while not cur.is_leaf:
            cur = cur.left if X[i, cur.feature] < cur.threshold else cur.right
        out[i] = cur.value
    return out



def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    """Mean negative log-likelihood with probability clipping."""
    p = np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    y = np.asarray(y, dtype=float)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())



def _best_split(X, g, h, l2_lambda, min_child_weight):
    """Exact greedy search; returns (gain, feature, threshold) or None."""
    g_total = g.sum()
    h_total = h.sum()
    parent = g_total * g_total / (h_total + l2_lambda)
    best_gain = 0.0
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        gr = g_total - gl
        hr = h_total - hl
        valid = xs[1:] != xs[:-1]
        valid &= hl >= min_child_weight
        valid &= hr >= min_child_weight
        if not valid.any():
            continue
        gains = 0.5 * (gl * gl / (hl + l2_lambda)
                       + gr * gr / (hr + l2_lambda) - parent)
        gains[~valid] = -np.inf
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best = (best_gain, j, float(0.5 * (xs[i] + xs[i + 1])))
    return best


def _build_tree(X, g, h, depth, params) -> TreeNode:
    node = TreeNode(cover=float(h.sum()))
    g_total = float(g.sum())
    denom = node.cover + params.l2_lambda
    node.value = 0.0 if denom == 0.0 else -g_total / denom
    if depth >= params.max_depth or X.shape[0] < 2:
        return node
    found = _best_split(X, g, h, params.l2_lambda, params.min_child_weight)
    if found is None:
        return node
    gain, feature, threshold = found
    mask = X[:, feature] < threshold
    if not mask.any() or mask.all():
        return node
    node.feature = feature
    node.threshold = threshold
    node.gain = gain
    node.left = _build_tree(X[mask], g[mask], h[mask], depth + 1, params)
    node.right = _build_tree(X[~mask], g[~mask], h[~mask], depth + 1, params)
    return node



def feature_gains(model: GBDTModel) -> np.ndarray:
    """Total split gain accumulated per feature across all trees."""
    gains = np.zeros(model.n_features)

    def walk(node: TreeNode) -> None:
        if node.is_leaf:
            return
        gains[node.feature] += node.gain
        walk(node.left)
        walk(node.right)

    for tree in model.trees:
        walk(tree)
    return gains



def _f17(value: float) -> str:
    return f"{float(value):.17g}"


def _node_to_list(node: TreeNode, out: list) -> None:
    if node.is_leaf:
        out.append({"cover": _f17(node.cover), "value": _f17(node.value)})
        return
    out.append({"cover": _f17(node.cover), "feature": node.feature,
                "threshold": _f17(node.threshold), "gain": _f17(node.gain)})
    _node_to_list(node.left, out)
    _node_to_list(node.right, out)



@dataclass
class _CartNode:
    prob: float  # class-1 fraction of rows here
    feature: int = -1
    threshold: float = 0.0
    left: "_CartNode | None" = None
    right: "_CartNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0



def _gini_best_split(X, y, feature_ids, min_samples_leaf):
    """Best (feature, threshold) by Gini impurity decrease, or None."""
    n = y.size
    total_pos = y.sum()
    best_score = -np.inf
    best = None
    parent_gini = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
    for j in feature_ids:
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        ys = y[order]
        pos_left = np.cumsum(ys)[:-1]
        n_left = np.arange(1, n)
        n_right = n - n_left
        pos_right = total_pos - pos_left
        valid = xs[1:] != xs[:-1]
        valid &= n_left >= min_samples_leaf
        valid &= n_right >= min_samples_leaf
        if not valid.any():
            continue
        gini_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
        gini_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
        scores = parent_gini - (n_left * gini_left + n_right * gini_right) / n
        scores[~valid] = -np.inf
        i = int(np.argmax(scores))
        if scores[i] > best_score and scores[i] > 1e-12:
            best_score = float(scores[i])
            best = (j, float(0.5 * (xs[i] + xs[i + 1])))
    return best


def _build_cart(X, y, depth, max_depth, min_samples_leaf, mtry, rng) -> _CartNode:
    node = _CartNode(prob=float(y.mean()))
    if depth >= max_depth or y.size < 2 * min_samples_leaf or y.min() == y.max():
        return node
    feature_ids = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
    found = _gini_best_split(X, y, feature_ids, min_samples_leaf)
    if found is None:
        return node
    feature, threshold = found
    mask = X[:, feature] < threshold
    if not mask.any() or mask.all():
        return node
    node.feature = feature
    node.threshold = threshold
    node.left = _build_cart(X[mask], y[mask], depth + 1, max_depth,
                            min_samples_leaf, mtry, rng)
    node.right = _build_cart(X[~mask], y[~mask], depth + 1, max_depth,
                             min_samples_leaf, mtry, rng)
    return node



@dataclass(frozen=True)
class FlatTree:
    """One tree as parallel arrays; children index into the arrays, -1 at leaves."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray



def flatten_tree(root: TreeNode) -> FlatTree:
    """Preorder array form of a tree.

    Raises ModelIntegrityError when any node has nonpositive or
    non-finite cover (cover is the conditioning weight, so every
    division below depends on it) or an internal node lacks a child.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    cover: list[float] = []

    def visit(node: TreeNode) -> int:
        cov = float(node.cover)
        if not math.isfinite(cov) or cov <= 0.0:
            raise ModelIntegrityError(
                f"tree node cover must be positive and finite, got {cov!r}")
        idx = len(feature)
        if node.is_leaf:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(float(node.value))
            cover.append(cov)
            return idx
        if node.left is None or node.right is None:
            raise ModelIntegrityError("internal tree node is missing a child")
        feature.append(int(node.feature))
        threshold.append(float(node.threshold))
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        cover.append(cov)
        left[idx] = visit(node.left)
        right[idx] = visit(node.right)
        return idx

    visit(root)
    return FlatTree(feature=np.asarray(feature, dtype=np.int64),
                    threshold=np.asarray(threshold, dtype=float),
                    left=np.asarray(left, dtype=np.int64),
                    right=np.asarray(right, dtype=np.int64),
                    value=np.asarray(value, dtype=float),
                    cover=np.asarray(cover, dtype=float))


def tree_expected_value(tree: FlatTree) -> float:
    """Cover-weighted mean leaf value (the tree's output on no information)."""
    leaves = tree.feature < 0
    return float(np.dot(tree.value[leaves], tree.cover[leaves]) / tree.cover[0])


def expected_margin(model: GBDTModel) -> float:
    """Margin the ensemble predicts with every feature marginalized out."""
    total = model.base_score
    lr = model.params.learning_rate
    for root in model.trees:
        total += lr * tree_expected_value(flatten_tree(root))
    return float(total)


# ---------------------------------------------------------------------------
# fast route: subset-weight propagation along paths
#
# The path state is four parallel lists, one entry per distinct feature
# encountered from the root. Each entry holds the feature index, the
# fraction of subsets flowing down when the feature is excluded (zero)
# or included (one), and a permutation weight. _extend pushes a feature
# onto the path; _unwind removes one, redistributing its weight; the
# leaf sums, for each path feature, the total weight the path would
# carry without that entry.

def _extend(feat: list, zero: list, one: list, weight: list,
            pz: float, po: float, pi: int) -> None:
    d = len(feat)
    feat.append(pi)
    zero.append(pz)
    one.append(po)
    weight.append(1.0 if d == 0 else 0.0)
    for i in range(d - 1, -1, -1):
        weight[i + 1] += po * weight[i] * (i + 1) / (d + 1)
        weight[i] = pz * weight[i] * (d - i) / (d + 1)


def _unwind(feat: list, zero: list, one: list, weight: list, index: int) -> None:
    last = len(feat) - 1
    o = one[index]
    z = zero[index]
    n = weight[last]
    if o != 0.0:
        for i in range(last - 1, -1, -1):
            t = weight[i]
            weight[i] = n * (last + 1) / ((i + 1) * o)
            n = t - weight[i] * z * (last - i) / (last + 1)
    else:
        for i in range(last - 1, -1, -1):
            weight[i] = weight[i] * (last + 1) / (z * (last - i))
    for i in range(index, last):
        feat[i] = feat[i + 1]
        zero[i] = zero[i + 1]
        one[i] = one[i + 1]
    feat.pop()
    zero.pop()
    one.pop()
    weight.pop()


def _unwound_sum(zero: list, one: list, weight: list, index: int) -> float:
    last = len(weight) - 1
    o = one[index]
    z = zero[index]
    total = 0.0
    if o != 0.0:
        n = weight[last]
        for i in range(last - 1, -1, -1):
            t = n / ((i + 1) * o)
            total += t
            n = weight[i] - t * z * (last - i)
    else:
        for i in range(last - 1, -1, -1):
            total += weight[i] / (z * (last - i))
    return total * (last + 1)


def _tree_shap(tree: FlatTree, x: np.ndarray, phi: np.ndarray, scale: float) -> None:
    def recurse(node: int, feat: list, zero: list, one: list, weight: list,
                pz: float, po: float, pi: int) -> None:
        feat = list(feat)
        zero = list(zero)
        one = list(one)
        weight = list(weight)
        _extend(feat, zero, one, weight, pz, po, pi)
        split = tree.feature[node]
        if split < 0:
            v = tree.value[node] * scale
            for i in range(1, len(feat)):
                w = _unwound_sum(zero, one, weight, i)
                phi[feat[i]] += w * (one[i] - zero[i]) * v
            return
        lo = int(tree.left[node])
        hi = int(tree.right[node])
        hot, cold = (lo, hi) if x[split] < tree.threshold[node] else (hi, lo)
        hot_frac = tree.cover[hot] / tree.cover[node]
        cold_frac = tree.cover[cold] / tree.cover[node]
        iz = 1.0
        io = 1.0
        k = -1
        for i, f in enumerate(feat):
            if f == split:
                k = i
                break
        if k >= 0:
            iz = zero[k]
            io = one[k]
            _unwind(feat, zero, one, weight, k)
        recurse(hot, feat, zero, one, weight, hot_frac * iz, io, int(split))
        recurse(cold, feat, zero, one, weight, cold_frac * iz, 0.0, int(split))

    recurse(0, [], [], [], [], 1.0, 1.0, -1)


@dataclass
class GBDTModel:
    trees: list
    params: GBDTParams
    n_features: int
    base_score: float = 0.0
    seed: int = 0
    loss_history: list = field(default_factory=list)

    def predict_margin(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        out = np.full(X.shape[0], self.base_score, dtype=float)
        lr = self.params.learning_rate
        for tree in self.trees:
            out += lr * _tree_predict(tree, X)
        return out

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.predict_margin(X))


def fit_gbdt(X, y, params: dict, seed: int = 0) -> GBDTModel:
    params = GBDTParams(**params)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    model = GBDTModel(trees=[], params=params, n_features=X.shape[1], seed=seed)
    margins = np.full(X.shape[0], model.base_score, dtype=float)
    n = X.shape[0]
    for t in range(params.n_trees):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        if params.subsample_fraction < 1.0:
            rng = np.random.default_rng([seed, t])
            k = max(1, int(round(params.subsample_fraction * n)))
            rows = np.sort(rng.choice(n, size=k, replace=False))
            tree = _build_tree(X[rows], g[rows], h[rows], 0, params)
        else:
            tree = _build_tree(X, g, h, 0, params)
        model.trees.append(tree)
        margins += params.learning_rate * _tree_predict(tree, X)
        model.loss_history.append(log_loss(y, _sigmoid(margins)))
    return model


def model_to_dict(model: GBDTModel) -> dict:
    trees = []
    for tree in model.trees:
        nodes: list = []
        _node_to_list(tree, nodes)
        trees.append(nodes)
    p = model.params
    return {
        "format": "adam-gbdt",
        "version": 1,
        "n_features": model.n_features,
        "base_score": _f17(model.base_score),
        "seed": model.seed,
        "params": {
            "n_trees": p.n_trees,
            "max_depth": p.max_depth,
            "learning_rate": _f17(p.learning_rate),
            "l2_lambda": _f17(p.l2_lambda),
            "min_child_weight": _f17(p.min_child_weight),
            "subsample_fraction": _f17(p.subsample_fraction),
        },
        "loss_history": [_f17(v) for v in model.loss_history],
        "trees": trees,
    }


def fit_random_forest(X, y, n_trees=100, max_depth=12, min_samples_leaf=1, seed=0) -> list:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    mtry = max(1, int(math.sqrt(d)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n)
        trees.append(_build_cart(X[rows], y[rows], 0, max_depth,
                                 min_samples_leaf, mtry, rng))
    return trees


def forest_predict_proba(trees, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    out = np.zeros(X.shape[0])
    for tree in trees:
        for i in range(X.shape[0]):
            cur = tree
            while not cur.is_leaf:
                cur = cur.left if X[i, cur.feature] < cur.threshold else cur.right
            out[i] += cur.prob
    return out / len(trees)


def forest_nodes(tree) -> list:
    """Preorder (feature, threshold, prob-or-None) of a CART tree."""
    if tree.is_leaf:
        return [(-1, 0.0, tree.prob)]
    return ([(tree.feature, tree.threshold, None)]
            + forest_nodes(tree.left) + forest_nodes(tree.right))


def shap_values(model: GBDTModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X.reshape(1, -1)
    flats = [flatten_tree(root) for root in model.trees]
    lr = model.params.learning_rate
    phi = np.zeros((X.shape[0], model.n_features))
    for r in range(X.shape[0]):
        for flat in flats:
            _tree_shap(flat, X[r], phi[r], lr)
    return phi[0] if single else phi


def lr_sigmoid(z: np.ndarray) -> np.ndarray:
    """The masked form the logistic regression used inline."""
    p = np.empty_like(z)
    pos = z >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p[~pos] = ez / (1.0 + ez)
    return p


# The depth-first growth helpers of adam.ensemble.tree, copied so that
# the forest reference below runs none of the code under test.

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


def fit_forest_trees(X, y, n_trees=100, max_depth=12, min_samples_leaf=1, seed=0) -> list:
    """The array forest's trees, grown one after another, each depth first."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    mtry = max(1, int(math.sqrt(d)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n)
        trees.append(_grow_cart(X[rows], y[rows], max_depth, min_samples_leaf, mtry, rng))
    return trees
