"""Exact Shapley attribution for the boosted tree ensemble.

Contributions are computed on the margin (log-odds) scale under
path-dependent conditioning: marginalizing a feature at a split sends
weight down both branches in proportion to node cover. Two independent
routes produce the same numbers:

* ``shap_values``: polynomial-time propagation of subset weights along
  each root-to-leaf path (the extend/unwind bookkeeping), linear in the
  number of leaves for each sample.
* ``shap_values_exact``: direct enumeration of feature coalitions with
  factorial Shapley weights. Exponential in the number of distinct
  split features, so it refuses to run past ``MAX_EXACT_FEATURES``.

Both read the model's trees directly: the parallel preorder arrays of
``ensemble.tree.Tree`` that fitting produces and ``model_from_dict``
checks once at load, so nothing is rebuilt per call.

Both satisfy local accuracy: ``model.expected_margin`` plus the sum of
per-feature contributions equals ``model.predict_margin(x)`` exactly
(up to floating-point roundoff).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ensemble.gbdt import GBDTModel, sigmoid
from .ensemble.tree import Tree
from .errors import SizeGuardError

MAX_EXACT_FEATURES = 20


class Attribution(NamedTuple):
    """Per-feature margin contributions for one sample."""

    feature_names: tuple[str, ...]
    contributions: tuple[float, ...]
    base_value: float
    margin: float
    probability: float

    def ranked(self) -> tuple[tuple[str, float], ...]:
        return rank_features(self.feature_names, self.contributions)


# ---------------------------------------------------------------------------
# fast route: subset-weight propagation along paths, all rows at once
#
# The path state is four parallel lists, one entry per distinct feature
# encountered from the root. Each entry holds the feature index, the
# fraction of subsets flowing down when the feature is excluded (zero)
# or included (one), and a permutation weight. _extend pushes a feature
# onto the path; _unwind removes one, redistributing its weight; the
# leaf sums, for each path feature, the total weight the path would
# carry without that entry.
#
# Every row walks the whole tree, so the path's features and zero
# fractions (cover ratios) are the same for all rows; only the one
# fractions, which follow each row's branch, and the weights are
# (rows,) arrays. Each element does the arithmetic of a one-row walk in
# the same order, and where that walk branches on ``one != 0`` both arms
# are computed and np.where picks; the arm not taken may divide by zero.

def _extend(feat: list, zero: list, one: list, weight: list,
            pz: float, po: np.ndarray, pi: int) -> None:
    d = len(feat)
    feat.append(pi)
    zero.append(pz)
    one.append(po)
    weight.append(1.0 if d == 0 else 0.0)
    for i in range(d - 1, -1, -1):
        weight[i + 1] = weight[i + 1] + po * weight[i] * (i + 1) / (d + 1)
        weight[i] = pz * weight[i] * (d - i) / (d + 1)


def _unwind(feat: list, zero: list, one: list, weight: list, index: int) -> None:
    last = len(feat) - 1
    o = one[index]
    z = zero[index]
    n = weight[last]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(last - 1, -1, -1):
            t = weight[i]
            w = n * (last + 1) / ((i + 1) * o)
            n = t - w * z * (last - i) / (last + 1)
            weight[i] = np.where(o != 0.0, w, t * (last + 1) / (z * (last - i)))
    del feat[index], zero[index], one[index]
    weight.pop()


def _unwound_sum(zero: list, one: list, weight: list, index: int) -> np.ndarray:
    last = len(weight) - 1
    o = one[index]
    z = zero[index]
    on = off = 0.0
    n = weight[last]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(last - 1, -1, -1):
            t = n / ((i + 1) * o)
            on = on + t
            n = weight[i] - t * z * (last - i)
            off = off + weight[i] / (z * (last - i))
    return np.where(o != 0.0, on, off) * (last + 1)


def _leaf_counts(tree: Tree) -> np.ndarray:
    """Leaves under each node (children follow their parent in preorder)."""
    count = np.ones(tree.feature.size, dtype=np.int64)
    for node in np.flatnonzero(tree.feature >= 0)[::-1]:
        count[node] = count[tree.left[node]] + count[tree.right[node]]
    return count


def _tree_shap(tree: Tree, X: np.ndarray, phi: np.ndarray, scale: float) -> None:
    """Add one tree's contributions to every row of phi.

    A one-row walk visits the child the row takes (hot) before the
    other (cold), and adds each leaf's terms to phi as it goes; a
    feature's terms from several leaves are summed in that order. Here
    every leaf's terms are kept with the leaf's position in each row's
    hot-first order, and each feature's terms are added in it.
    """
    rows = X.shape[0]
    leaves = _leaf_counts(tree)
    terms: dict[int, list] = {}  # feature -> [(position per row, term per row)]

    def recurse(node: int, feat: list, zero: list, one: list, weight: list,
                pz: float, po: np.ndarray, pi: int, position: np.ndarray) -> None:
        feat = list(feat)
        zero = list(zero)
        one = list(one)
        weight = list(weight)
        _extend(feat, zero, one, weight, pz, po, pi)
        split = int(tree.feature[node])
        if split < 0:
            v = tree.value[node] * scale
            for i in range(1, len(feat)):
                w = _unwound_sum(zero, one, weight, i)
                terms.setdefault(feat[i], []).append(
                    (position, w * (one[i] - zero[i]) * v))
            return
        lo = int(tree.left[node])
        hi = int(tree.right[node])
        left = X[:, split] < tree.threshold[node]
        iz = 1.0
        io = 1.0
        if split in feat:
            k = feat.index(split)
            iz = zero[k]
            io = one[k]
            _unwind(feat, zero, one, weight, k)
        lo_frac = tree.cover[lo] / tree.cover[node]
        hi_frac = tree.cover[hi] / tree.cover[node]
        recurse(lo, feat, zero, one, weight, lo_frac * iz,
                np.where(left, io, 0.0), split,
                np.where(left, position, position + leaves[hi]))
        recurse(hi, feat, zero, one, weight, hi_frac * iz,
                np.where(left, 0.0, io), split,
                np.where(left, position + leaves[lo], position))

    recurse(0, [], [], [], [], 1.0, np.ones(rows), -1,
            np.zeros(rows, dtype=np.int64))
    for f, pairs in terms.items():
        positions = np.stack([p for p, _ in pairs], axis=1)
        values = np.stack([v for _, v in pairs], axis=1)
        ordered = np.take_along_axis(values, np.argsort(positions, axis=1), axis=1)
        # cumsum adds left to right, one term after another
        phi[:, f] = np.cumsum(np.column_stack([phi[:, f], ordered]), axis=1)[:, -1]


def shap_values(model: GBDTModel, X) -> np.ndarray:
    """Per-feature margin contributions for each row of X.

    :returns: array shaped like X (a single sample gives a 1-d vector)
        whose rows sum to ``predict_margin - expected_margin``. Each row
        is bit-identical to computing that row alone.
    """
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected samples with {model.n_features} features, "
                         f"got shape {X.shape}")
    lr = model.params.learning_rate
    phi = np.zeros((X.shape[0], model.n_features))
    for tree in model.trees:
        _tree_shap(tree, X, phi, lr)
    return phi[0] if single else phi


# ---------------------------------------------------------------------------
# slow route: coalition enumeration
#
# Features never split on are null players and take no part; the
# Shapley values of the remaining features are unchanged by dropping
# them, so the enumeration runs over the used features only. Per tree,
# a post-order pass evaluates the conditioned expectation for every
# coalition at once: coalitions containing the split feature follow the
# sample's branch, the rest blend both children by cover.

def _used_features(trees: list[Tree]) -> list[int]:
    used: set[int] = set()
    for tree in trees:
        used.update(int(f) for f in tree.feature[tree.feature >= 0])
    return sorted(used)


def _coalition_table(tree: Tree, x: np.ndarray, position: dict[int, int],
                     masks: np.ndarray) -> np.ndarray:
    def visit(node: int) -> np.ndarray:
        split = tree.feature[node]
        if split < 0:
            return np.full(masks.size, tree.value[node])
        lo = int(tree.left[node])
        hi = int(tree.right[node])
        left_val = visit(lo)
        right_val = visit(hi)
        hot = left_val if x[split] < tree.threshold[node] else right_val
        wl = tree.cover[lo] / tree.cover[node]
        wr = tree.cover[hi] / tree.cover[node]
        blended = wl * left_val + wr * right_val
        included = (masks >> position[int(split)]) & 1 == 1
        return np.where(included, hot, blended)

    return visit(0)


def coalition_margins(model: GBDTModel, x) -> tuple[list[int], np.ndarray]:
    """Conditioned margin for every coalition of the used features.

    :returns: (used feature indices, margins indexed by coalition
        bitmask over those features). Entry 0 is the no-information
        margin and the full mask reproduces ``predict_margin``.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {x.size}")
    used = _used_features(model.trees)
    if len(used) > MAX_EXACT_FEATURES:
        raise SizeGuardError(
            f"coalition enumeration over {len(used)} features exceeds the "
            f"limit of {MAX_EXACT_FEATURES}")
    position = {f: i for i, f in enumerate(used)}
    masks = np.arange(1 << len(used), dtype=np.int64)
    margins = np.full(masks.size, float(model.base_score))
    lr = model.params.learning_rate
    for tree in model.trees:
        margins += lr * _coalition_table(tree, x, position, masks)
    return used, margins


def shap_values_exact(model: GBDTModel, x) -> np.ndarray:
    """Shapley values by direct coalition enumeration (cross-check route)."""
    used, margins = coalition_margins(model, x)
    m = len(used)
    masks = np.arange(1 << m, dtype=np.int64)
    sizes = np.zeros(masks.size, dtype=np.int64)
    for b in range(m):
        sizes += (masks >> b) & 1
    fact = [math.factorial(k) for k in range(m + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)] or [0.0])
    phi = np.zeros(model.n_features)
    for i, f in enumerate(used):
        bit = 1 << i
        absent = masks[(masks & bit) == 0]
        w = weight_by_size[sizes[absent]]
        phi[f] = float(np.sum(w * (margins[absent | bit] - margins[absent])))
    return phi


def rank_features(names, contributions) -> tuple[tuple[str, float], ...]:
    """(name, contribution) pairs, largest magnitude first, names break ties."""
    names = tuple(names)
    values = tuple(float(v) for v in contributions)
    if len(names) != len(values):
        raise ValueError(f"{len(names)} names but {len(values)} contributions")
    order = sorted(range(len(names)), key=lambda i: (-abs(values[i]), names[i]))
    return tuple((names[i], values[i]) for i in order)


def explain_rows(model: GBDTModel, X, feature_names) -> list[Attribution]:
    """Attribution record for each row of X, from one ``shap_values`` and
    one ``predict_margin`` call; each is the record of its row alone."""
    X = np.asarray(X, dtype=float)
    names = tuple(str(n) for n in feature_names)
    if len(names) != model.n_features:
        raise ValueError(f"model has {model.n_features} features but "
                         f"{len(names)} names were given")
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d block of samples, got shape {X.shape}")
    phi = shap_values(model, X)
    margins = model.predict_margin(X)
    probabilities = sigmoid(margins)
    return [Attribution(feature_names=names,
                        contributions=tuple(float(v) for v in row),
                        base_value=model.expected_margin,
                        margin=float(margin),
                        probability=float(probability))
            for row, margin, probability in zip(phi, margins, probabilities)]
