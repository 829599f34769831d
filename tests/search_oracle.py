"""search() as it was before the blocked scan, kept as the reference.

``search_full_scan`` is a frozen copy of it: each query is checked and
normalised, and each collection's cached float64 scan matrix takes one
matrix-vector product with it. ``tests/test_search_identity.py`` holds
``search_many`` to it with ``==``, similarities included, on the cases of
``identity_cases()``.

OpenBLAS splits a matrix-vector product's rows between its threads. At two
BLAS threads, a product of a whole 553 x 1536 matrix differed from the
one-thread product in the last bit of some rows, while the blocked scan
did not. The reference is therefore defined at one BLAS thread, which is
how perfbench runs the program. Run as a script (with one BLAS thread),
this module compares the two on every case and prints one JSON object
mapping each case id to "equal" or to the first difference.
"""

import json

import numpy as np

from adam.errors import DimensionError
from adam.vectorstore import (
    Collection,
    RetrievalHit,
    VectorRecord,
    search_many,
)

ROW_COUNTS = (1, 2, 15, 16, 17, 127, 128, 129, 143, 144, 145, 257, 553, 800)
DIMS = (3, 64, 1536)


def _as_query(query, dim: int) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64).ravel()
    if q.size != dim:
        raise DimensionError(f"query has dimension {q.size}, expected {dim}")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValueError("query vector has zero norm")
    return q / norm


def search_full_scan(collections, query, k, threshold):
    """One query's hits from one product of each whole scan matrix."""
    if isinstance(collections, Collection):
        collections = (collections,)
    collections = tuple(collections)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    hits = []
    for coll in collections:
        if coll.count == 0:
            continue
        q = _as_query(query, coll.dim)
        rows, matrix, norms = coll._scan
        sims = np.zeros(coll.count)
        sims[rows] = (matrix @ q) / norms
        candidates = np.flatnonzero(sims >= threshold)
        if candidates.size > k:
            kth = np.partition(sims[candidates], candidates.size - k)[
                candidates.size - k]
            candidates = candidates[sims[candidates] >= kth]
        for i in candidates:
            rec = coll.records[i]
            hits.append(RetrievalHit(publication_id=rec.publication_id,
                                     segment_index=rec.segment_index,
                                     similarity=float(sims[i]),
                                     collection=coll.name,
                                     text=rec.text))
    hits.sort(key=lambda h: (-h.similarity, h.publication_id,
                             h.segment_index, h.collection))
    return tuple(hits[:k])


def _collection(name, vectors):
    return Collection(name=name, dim=vectors.shape[1], records=tuple(
        VectorRecord(publication_id=f"PUB{i:05d}", segment_index=i % 5,
                     text=f"{name}/{i}", topic_keywords=("kw",),
                     vector=v)
        for i, v in enumerate(vectors)))


def _normal(seed, rows, dim):
    return np.random.default_rng(seed).normal(size=(rows, dim)).astype(
        np.float32)


def _grid_case(rows, dim):
    """Every similarity of 8 float32 queries against one collection."""
    def build():
        coll = _collection("grid", _normal(rows * 7 + dim, rows, dim))
        queries = _normal(rows + dim, 8, dim)
        return (coll,), queries, rows, -1.0
    return build


def _zero_rows():
    """Zero-norm rows; 129 nonzero rows leave a 1-row tail unmerged."""
    vectors = _normal(11, 140, 64)
    vectors[::13] = 0.0
    coll = _collection("zeros", vectors)
    return (coll,), _normal(12, 8, 64), 140, -1.0


def _two_collections(k, threshold):
    """The benchmark store's shapes: 553 + 247 rows of 1536 dimensions."""
    def build():
        colls = (_collection("alzheimers", _normal(21, 553, 1536)),
                 _collection("microbiome", _normal(22, 247, 1536)))
        return colls, _normal(23, 8, 1536), k, threshold
    return build


def _ties():
    """Repeated and rescaled rows: exact ties at and around the k-th."""
    base = _normal(31, 6, 64)
    picks = np.random.default_rng(32).integers(0, 6, size=200)
    scales = np.array([1.0, 2.0, 0.5, 4.0], dtype=np.float32)[
        np.arange(200) % 4]
    coll = _collection("ties", base[picks] * scales[:, None])
    return (coll,), base[[0, 3, 5, 0]], 5, -1.0


def _threshold_one():
    """Threshold 1: only rows parallel to the query can pass."""
    vectors = _normal(41, 300, 1536)
    queries = vectors[[7, 150, 299]] * np.float32(3.0)
    return (_collection("parallel", vectors),), queries, 5, 1.0


def _query_twice():
    colls, queries, _, _ = _two_collections(5, 0.0)()
    return colls, queries[[0, 1, 0, 2]], 9, 0.0


def _empty_batch():
    colls, _, _, _ = _two_collections(5, 0.0)()
    return colls, np.zeros((0, 1536), dtype=np.float32), 5, 0.0


def identity_cases():
    """Case id -> builder of (collections, queries, k, threshold)."""
    cases = {f"rows{rows}-dim{dim}": _grid_case(rows, dim)
             for dim in DIMS for rows in ROW_COUNTS}
    cases.update({
        "zero-norm-rows": _zero_rows,
        "two-collections-top5": _two_collections(5, 0.0),
        "two-collections-all": _two_collections(800, -1.0),
        "ties-at-kth": _ties,
        "threshold-1": _threshold_one,
        "query-twice": _query_twice,
        "empty-batch": _empty_batch,
    })
    return cases


def _first_difference(got, want):
    if len(got) != len(want):
        return f"{len(got)} queries answered, want {len(want)}"
    for j, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w):
            return f"query {j}: {len(g)} hits, want {len(w)}"
        for i, (a, b) in enumerate(zip(g, w)):
            if a != b:
                return f"query {j} hit {i}: {a!r}, want {b!r}"
    return "equal"


def compare_cases():
    out = {}
    for case_id, build in identity_cases().items():
        collections, queries, k, threshold = build()
        got = search_many(collections, queries, k=k, threshold=threshold)
        want = [search_full_scan(collections, q, k, threshold)
                for q in queries]
        out[case_id] = _first_difference(got, want)
    return out


if __name__ == "__main__":
    print(json.dumps(compare_cases()))
