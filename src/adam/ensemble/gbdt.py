"""Gradient-boosted decision trees for binary classification, from scratch.

Newton boosting on the logistic loss: per round, with current
probabilities p, the gradients are g = p - y and hessians h = p(1 - p).
Each tree greedily maximizes the exact split gain

    gain = 1/2 * [GL^2/(HL + lambda) + GR^2/(HR + lambda) - G^2/(H + lambda)]

over every feature and every midpoint between adjacent distinct sorted
values (no histogram binning), through the sorted-segment search the
forest shares (see ``tree``): each searched node sorts its rows by
every feature at once and scores all splits from prefix sums along
those segments. Leaf values are -G/(H + lambda).
The model's raw score is base_score + learning_rate * sum of tree
outputs, mapped through the sigmoid for probabilities.

Trees are the parallel-array ``Tree`` of ``tree``, the one form that
fitting, prediction, Shapley attribution and serialization share. Every
node stores its cover (the hessian mass routed through it), which
attribution uses as the conditioning weight.

Determinism: split ties resolve to the lowest feature index, then the
lowest threshold; with subsample_fraction = 1 the fit is a pure
function of (X, y, params), and with subsampling it is a pure function
of (X, y, params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ..errors import (INTEGER, OBJECT, DegenerateFitError, EmptyInputError, FormatError,
                      ModelIntegrityError, check_fields)
from .tree import (FitRows, Segments, Tree, as_matrix, dense_ranks, leaf_values, sort_segments,
                   split_search, stack)

DEFAULT_PARAMS = {
    "n_trees": 60,
    "max_depth": 3,
    "learning_rate": 0.3,
    "l2_lambda": 1.0,
    "min_child_weight": 1.0,
    "subsample_fraction": 1.0,
}

_PROB_CLIP = 1e-15


@dataclass
class GBDTParams:
    n_trees: int = DEFAULT_PARAMS["n_trees"]
    max_depth: int = DEFAULT_PARAMS["max_depth"]
    learning_rate: float = DEFAULT_PARAMS["learning_rate"]
    l2_lambda: float = DEFAULT_PARAMS["l2_lambda"]
    min_child_weight: float = DEFAULT_PARAMS["min_child_weight"]
    subsample_fraction: float = DEFAULT_PARAMS["subsample_fraction"]

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must lie in (0, 1], got {self.learning_rate}")
        if self.l2_lambda < 0.0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.min_child_weight < 0.0:
            raise ValueError(f"min_child_weight must be >= 0, got {self.min_child_weight}")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValueError(
                f"subsample_fraction must lie in (0, 1], got {self.subsample_fraction}")


@dataclass
class GBDTModel:
    trees: list[Tree]
    params: GBDTParams
    n_features: int
    base_score: float = 0.0
    seed: int = 0
    loss_history: list[float] = field(default_factory=list)

    @cached_property
    def _stacked(self):
        return stack(self.trees)

    @cached_property
    def expected_margin(self) -> float:
        """Margin with every feature marginalized out: base score plus
        each tree's cover-weighted mean leaf value, in tree order."""
        total = self.base_score
        lr = self.params.learning_rate
        for tree in self.trees:
            total += lr * tree.expected_value()
        return float(total)

    def predict_margin(self, X) -> np.ndarray:
        X = as_matrix(X, self.n_features)
        terms = np.empty((len(self.trees) + 1, X.shape[0]))
        terms[0] = self.base_score
        terms[1:] = self.params.learning_rate * leaf_values(self._stacked, X)
        return np.cumsum(terms, axis=0)[-1]  # trees added one by one, in order

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.predict_margin(X))

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z|,
    written as where(z >= 0, -z, z) so that a NaN keeps its sign bit."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def fit_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Float (X, y) checked for fitting: a non-empty 2-d matrix of finite
    values and one binary 0/1 label per row."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInputError("need a non-empty 2-d matrix")
    if X.shape[0] != y.size:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.size}")
    if not np.isfinite(X).all():
        raise DegenerateFitError("feature matrix contains NaN or infinity; "
                                 "impute before fitting")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary 0/1")
    return X, y


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    """Mean negative log-likelihood with probability clipping."""
    p = np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    y = np.asarray(y, dtype=float)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


def _newton_gain(g, h, lam, mcw, g_total, h_total, seg):
    """Newton gain of each split of one node (see ``tree.split_search``)
    and the hessian mass left of it. g/h sums are floats, so the node's
    segments are summed as (features, rows) along the rows: each prefix
    sum starts from zero and adds what a per-feature search adds."""
    rows = seg.row.reshape(seg.drawn.shape[1], -1)
    gl = np.cumsum(g[rows], axis=1)
    hl = np.cumsum(h[rows], axis=1)
    gr = g_total - gl
    hr = h_total - hl
    valid = seg.valid.reshape(rows.shape) & (hl >= mcw)
    valid &= hr >= mcw
    parent = g_total * g_total / (h_total + lam)
    with np.errstate(divide="ignore", invalid="ignore"):  # hr + lam is 0 at lam = 0
        gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
    gain[~valid] = -np.inf
    return gain.ravel(), hl.ravel()


def _grow(data: FitRows, root: Segments | None, g, h, params):
    """One boosting tree on the rows of data.part, grown depth first,
    left subtree before right, one node searched at a time (the root
    through its segments ``root`` when given). Returns the tree and the
    leaf value each of those rows reaches (other entries 0)."""
    lam, mcw = params.l2_lambda, params.min_child_weight
    every_feature = np.arange(data.XT.shape[0])[None]
    nodes: list[list] = []  # Tree fields, preorder
    fitted = np.zeros(data.XT.shape[1])
    # the nodes still to visit, next one last: start and stop in part,
    # depth, and the node whose right child it is (-1 for a left child)
    todo = [(0, data.part.size, 0, -1)]
    while todo:
        start, stop, depth, parent = todo.pop()
        if parent >= 0:
            nodes[parent][3] = len(nodes)
        idx = np.sort(data.part[start:stop])
        g_total, h_total = g[idx].sum(), h[idx].sum()
        cover = float(h_total)
        denom = cover + lam
        value = 0.0 if denom == 0.0 else -float(g_total) / denom
        nodes.append([-1, 0.0, -1, -1, value, cover, 0.0])
        fitted[idx] = value
        # A node with cover < 2 * mcw has no valid split, so it is not
        # searched. A prefix sum hl >= mcw then has h_total / 2 < hl <=
        # 2 * h_total, so hr = h_total - hl is exact (Sterbenz) and
        # hr <= h_total - mcw < mcw.
        if not (depth < params.max_depth and idx.size >= 2 and cover >= 2.0 * mcw
                and every_feature.size):
            continue
        seg = root if depth == 0 and root is not None else sort_segments(
            data, np.array([start]), np.array([idx.size]), every_feature)
        found, feature, threshold, gain, n_left, _ = split_search(
            data, seg, partial(_newton_gain, g, h, lam, mcw, g_total, h_total), 0.0)
        if found.size and 0 < n_left[0] < idx.size:
            k = len(nodes) - 1
            nodes[k] = [int(feature[0]), float(threshold[0]), k + 1, -1, 0.0, cover,
                        float(gain[0])]
            mid = start + int(n_left[0])
            todo += [(mid, stop, depth + 1, k), (start, mid, depth + 1, -1)]
    return Tree.from_nodes(nodes), fitted


def fit_gbdt(X, y, params: GBDTParams | dict | None = None, seed: int = 0) -> GBDTModel:
    """Fit the boosted ensemble.

    :param X: (n, d) feature matrix without NaN.
    :param y: binary labels.
    :param params: GBDTParams, a dict of overrides, or None for defaults.
    :param seed: only consulted when subsample_fraction < 1.
    :returns: fitted model with a per-round training log-loss history.
    """
    if isinstance(params, dict):
        params = GBDTParams(**{**DEFAULT_PARAMS, **params})
    elif params is None:
        params = GBDTParams()
    params.validate()
    X, y = fit_inputs(X, y)

    model = GBDTModel(trees=[], params=params, n_features=X.shape[1], seed=seed)
    margins = np.full(X.shape[0], model.base_score, dtype=float)
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    data = FitRows(XT, dense_ranks(XT), np.arange(n))
    # every row reaches the root unless rows are subsampled, so the root's
    # segments are sorted once per fit
    root = (sort_segments(data, np.array([0]), np.array([n]), np.arange(X.shape[1])[None])
            if params.subsample_fraction == 1.0 else None)
    for t in range(params.n_trees):
        p = sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        if params.subsample_fraction == 1.0:
            tree, fitted = _grow(data, root, g, h, params)
        else:
            rng = np.random.default_rng([seed, t])
            k = max(1, int(round(params.subsample_fraction * n)))
            rows = np.sort(rng.choice(n, size=k, replace=False))
            tree, _ = _grow(data._replace(part=rows), None, g, h, params)
            fitted = leaf_values(stack([tree]), X)[0]
        model.trees.append(tree)
        margins += params.learning_rate * fitted
        model.loss_history.append(log_loss(y, sigmoid(margins)))
    return model


def feature_gains(model: GBDTModel) -> np.ndarray:
    """Total split gain accumulated per feature across all trees."""
    gains = np.zeros(model.n_features)
    for tree in model.trees:
        split = tree.feature >= 0
        np.add.at(gains, tree.feature[split], tree.gain[split])  # preorder, tree by tree
    return gains


# ---------------------------------------------------------------------------
# serialization: trees stored pre-order, floats as 17-significant-digit text

# A float field holds _f17 text; a JSON number is read as well.
_DECIMAL = (lambda v: isinstance(v, (str, int, float)) and not isinstance(v, bool),
            "a number or its decimal text")
_FLOAT_PARAMS = ("learning_rate", "l2_lambda", "min_child_weight", "subsample_fraction")
_MODEL_FIELDS = {
    "format": (lambda v: v == "adam-gbdt", "'adam-gbdt'"), "version": (lambda v: v == 1, "1"),
    "n_features": (lambda v: INTEGER[0](v) and v >= 0, "an integer >= 0"),
    "base_score": _DECIMAL, "seed": INTEGER, "params": OBJECT,
    "loss_history": (lambda v: isinstance(v, list) and all(map(_DECIMAL[0], v)),
                     "a list of decimals"),
    "trees": (lambda v: isinstance(v, list) and all(isinstance(t, list) for t in v),
              "a list of node lists")}
_PARAMS_FIELDS = {"n_trees": INTEGER, "max_depth": INTEGER,
                  **dict.fromkeys(_FLOAT_PARAMS, _DECIMAL)}
_LEAF_FIELDS = {"value": _DECIMAL, "cover": _DECIMAL}
_SPLIT_FIELDS = {"feature": INTEGER, "threshold": _DECIMAL, "cover": _DECIMAL, "gain": _DECIMAL}


def _f17(value: float) -> str:
    return f"{float(value):.17g}"


def _tree_to_list(tree: Tree) -> list:
    out = []
    for f, thr, value, cover, gain in zip(tree.feature.tolist(), tree.threshold.tolist(),
                                          tree.value.tolist(), tree.cover.tolist(),
                                          tree.gain.tolist()):
        if f < 0:
            out.append({"cover": _f17(cover), "value": _f17(value)})
        else:
            out.append({"cover": _f17(cover), "feature": f,
                        "threshold": _f17(thr), "gain": _f17(gain)})
    return out


def _tree_from_list(items: list, where: str) -> Tree:
    """Tree of a preorder node list: a split's first child is the next
    entry, its second child follows the first child's subtree."""
    nodes: list[list] = []
    pending: list[int] = []  # splits still waiting for their second child
    for i, entry in enumerate(items):
        if nodes:
            if nodes[-1][0] >= 0:
                nodes[-1][2] = len(nodes)
                pending.append(len(nodes) - 1)
            elif pending:
                nodes[pending.pop()][3] = len(nodes)
            else:
                raise ModelIntegrityError("trailing nodes in serialized tree")
        split = isinstance(entry, dict) and "feature" in entry
        check_fields(entry, _SPLIT_FIELDS if split else _LEAF_FIELDS, f"{where} node {i}")
        if not split:
            nodes.append([-1, 0.0, -1, -1, float(entry["value"]), float(entry["cover"]), 0.0])
            continue
        feature = entry["feature"]
        if feature < 0:
            raise ModelIntegrityError(f"negative split feature {feature}")
        nodes.append([feature, float(entry["threshold"]), -1, -1, 0.0,
                      float(entry["cover"]), float(entry["gain"])])
    if not nodes or nodes[-1][0] >= 0 or pending:
        raise ModelIntegrityError("serialized tree is truncated")
    return Tree.from_nodes(nodes)


def model_to_dict(model: GBDTModel) -> dict:
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
        "trees": [_tree_to_list(tree) for tree in model.trees],
    }


def model_from_dict(doc: dict) -> GBDTModel:
    """Rebuild a model from ``model_to_dict`` output, checking it once.

    Raises FormatError for anything but a version-1 adam-gbdt document
    with every field present and of the right type, and
    ModelIntegrityError for a tree that is truncated, has trailing
    nodes or fails ``Tree.check``, or a non-finite base score.
    """
    if isinstance(doc, dict):
        doc = {"version": 1, "seed": 0, "loss_history": [], **doc}
    check_fields(doc, _MODEL_FIELDS, "model")
    raw = doc["params"]
    check_fields(raw, _PARAMS_FIELDS, "model params")
    try:
        params = GBDTParams(n_trees=raw["n_trees"], max_depth=raw["max_depth"],
                            **{name: float(raw[name]) for name in _FLOAT_PARAMS})
        params.validate()
        base_score = float(doc["base_score"])
        loss_history = [float(v) for v in doc["loss_history"]]
        trees = [_tree_from_list(items, f"model tree {t}")
                 for t, items in enumerate(doc["trees"])]
    except (ValueError, OverflowError) as exc:
        raise FormatError(
            f"malformed adam-gbdt model ({type(exc).__name__}: {exc})") from exc
    n_features = doc["n_features"]
    if not math.isfinite(base_score):
        raise ModelIntegrityError(f"base_score must be finite, got {base_score!r}")
    for tree in trees:
        tree.check(n_features)
    return GBDTModel(trees=trees, params=params, n_features=n_features,
                     base_score=base_score, seed=doc["seed"], loss_history=loss_history)
