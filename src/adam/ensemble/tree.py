"""Decision trees as parallel arrays: the one tree form of the package.

A tree is seven arrays indexed by node in preorder (the root is node 0,
then the whole left subtree, then the right subtree). Rows whose value
of ``feature`` is below ``threshold`` go left. Leaves have feature,
left and right -1; internal nodes have value 0. ``cover`` is the weight
routed through a node (hessian mass for boosting, row count for the
forest) and ``gain`` the split gain of an internal node.

Both ensembles fit by one exact greedy search (Chen & Guestrin 2016,
XGBoost, 3.1) over every midpoint between distinct values: a batch of
nodes sorts its rows by every searched feature in one sort of packed
(segment, rank, row) keys, the ensemble's scorer scores each split
from prefix sums along those segments, and ``split_search`` keeps each
node's first best split. Prediction walks all trees at once, one level
per numpy step.
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


class FitRows(NamedTuple):
    """What every split search of one fit reads, and the order it keeps."""
    XT: np.ndarray  # (features, rows) fit matrix
    ranks: np.ndarray  # (features, rows) dense rank of each value in its column
    part: np.ndarray  # row ids, grouped by node: a node owns part[start:start + size]


class Segments(NamedTuple):
    """A batch of nodes as (node, feature) segments, node after node and
    features ascending, each the node's rows in ascending order of the
    feature, ties by row id."""
    starts: np.ndarray  # each node's slice of part
    sizes: np.ndarray
    drawn: np.ndarray  # (nodes, width) each node's features, ascending
    seg_start: np.ndarray  # first element of each segment
    segment: np.ndarray  # segment of each element
    row: np.ndarray  # row id of each element
    xs: np.ndarray  # its value of the segment's feature
    valid: np.ndarray  # the next element of its segment holds a larger value


def dense_ranks(XT: np.ndarray) -> np.ndarray:
    """(features, rows) index of each value of XT among its feature's
    distinct values: equal values share a rank, and ranks order as
    values do, whatever order the sort leaves ties in."""
    order = np.argsort(XT, axis=1)
    xs = np.take_along_axis(XT, order, axis=1)
    ranks = np.empty(XT.shape, dtype=np.min_scalar_type(XT.shape[1]))
    np.put_along_axis(ranks, order, np.cumsum(np.diff(xs, axis=1, prepend=xs[:, :1]) != 0,
                                              axis=1, dtype=ranks.dtype), axis=1)
    return ranks


def _sorted_positions(segment, rank, position, n_ranks, n_positions):
    """``position`` ordered by (segment, rank, position): within each
    segment, ascending value with ties in position order, which is the
    order a stable sort of the segment gives. One packed int64 key is
    sorted when the three fit in 63 bits; equal keys are equal
    elements, so the order does not depend on the sort algorithm."""
    p_bits = int(n_positions - 1).bit_length()
    r_bits = int(n_ranks - 1).bit_length()
    if segment.size and int(segment[-1]).bit_length() + r_bits + p_bits > 63:
        return position[np.lexsort((position, rank, segment))]
    key = (segment << (r_bits + p_bits)) | (rank.astype(np.int64) << p_bits) | position
    return np.sort(key) & ((1 << p_bits) - 1)


def _ragged(starts, lengths):
    """The ranges starts[k] .. starts[k] + lengths[k] - 1, concatenated,
    and the index k of the range each element belongs to."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    return np.arange(owner.size) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths), owner


def sort_segments(data: FitRows, starts, sizes, drawn) -> Segments:
    """Segments of the nodes owning part[starts[b]:starts[b] + sizes[b]]
    over the features drawn[b], by one sort of (segment, rank, row) keys."""
    seg_len = np.repeat(sizes, drawn.shape[1])
    seg_start = np.cumsum(seg_len) - seg_len
    slot, segment = _ragged(np.repeat(starts, drawn.shape[1]), seg_len)
    n = data.XT.shape[1]
    at_feature = np.repeat(drawn.ravel() * n, seg_len)  # flat index of each element's row 0
    row = data.part[slot]
    row = _sorted_positions(segment, np.take(data.ranks, at_feature + row), row, n, n)
    xs = np.take(data.XT, at_feature + row)
    valid = np.empty(xs.size, dtype=bool)
    valid[:-1] = xs[1:] != xs[:-1]
    valid[seg_start + seg_len - 1] = False
    return Segments(starts, sizes, drawn, seg_start, segment, row, xs, valid)


def split_search(data: FitRows, seg: Segments, score, floor):
    """Best split of each node of ``seg``, as the arrays (node, feature,
    threshold, gain, n_left, left_sum) over the nodes whose best split
    scores above ``floor``.

    ``score(seg)`` returns (scores, sums): the score of a split after
    each element, -inf where ``seg.valid`` is False or the ensemble's
    leaf rule forbids it, and a running sum that restarts with each
    segment. A node takes each segment's first maximum, then the first
    segment holding the node's maximum, so ties keep the lowest feature,
    then the lowest threshold; a segment whose first maximum is NaN
    loses. A found node's slice of part is rewritten in its winning
    segment's order, left rows first; left_sum is the running sum at
    its last left row."""
    scores, sums = score(seg)
    width = seg.drawn.shape[1]
    seg_best = np.maximum.reduceat(scores, seg.seg_start)
    seg_best[np.isnan(seg_best)] = -np.inf
    best = np.arange(seg.sizes.size) * width + seg_best.reshape(-1, width).argmax(axis=1)
    found = np.flatnonzero(seg_best[best] > floor)
    if not found.size:
        return (found,) * 6
    best = best[found]  # each found node's winning segment
    win = seg.seg_start[best]
    src, owner = _ragged(win, seg.sizes[found])  # the winning segments' elements
    hits = src[scores[src] == seg_best[best][owner]]
    at = hits[np.searchsorted(hits, win)]
    threshold = 0.5 * (seg.xs[at] + seg.xs[at + 1])

    # the winning segment holds the node's rows sorted by the split
    # feature, so the rows below the threshold come first
    data.part[src - win[owner] + seg.starts[found][owner]] = seg.row[src]
    n_left = np.bincount(owner[seg.xs[src] < threshold[owner]], minlength=found.size)
    left_sum = np.where(n_left > 0, sums[win + n_left - 1], 0.0)
    return found, seg.drawn.ravel()[best], threshold, seg_best[best], n_left, left_sum


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
