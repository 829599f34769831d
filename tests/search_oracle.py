"""search() as it was before the blocked scan, kept as the reference.

``search_full_scan`` is a frozen copy of it: each query is checked and
normalised, and the float64 matrix of each collection's nonzero rows
(built here as the collection once cached it) takes one matrix-vector
product with it. ``tests/test_search_identity.py`` holds
``search_many`` to it with ``==``, similarities included, on the cases of
``identity_cases()``. Some cases put a hit within the float32 screen's
error bound of the threshold or of the k-th similarity, with its screen
value on the losing side; others hold rows whose float32 products
overflow or underflow.

OpenBLAS splits a matrix-vector product's rows between its threads. At two
BLAS threads, a product of a whole 553 x 1536 matrix differed from the
one-thread product in the last bit of some rows, while products of
blocks of rows did not. The reference is therefore defined at one BLAS
thread, which is how perfbench runs the program. Run as a script (with
one BLAS thread), this module compares the two on every case and prints
one JSON object mapping each case id to "equal" or to the first
difference; with ``--hits`` it prints each case's reference hits instead,
and with ``--text-hits`` the reference hits of each ``text_traffic`` text
(``tests/test_query_batches.py``).
"""

import json
import sys

import numpy as np

from adam.embedding import OfflineHashEmbedder
from adam.errors import DimensionError
from adam.vectorstore import (
    Collection,
    RetrievalHit,
    VectorRecord,
    _row_blocks,
    _screen,
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


def _scan_matrix(coll):
    """(row indices, float64 rows, row norms) of the nonzero records, as
    the collection cached them before the float32 screen."""
    matrix = coll.matrix.astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    nonzero = norms > 0.0
    if not nonzero.all():
        matrix = matrix[nonzero]
    return np.flatnonzero(nonzero), matrix, norms[nonzero]


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
        rows, matrix, norms = _scan_matrix(coll)
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


def collection(name, dim, entries):
    """A Collection of (record, vector) pairs: the records in order, and
    their vectors as the rows of one (len(entries), dim) matrix."""
    entries = tuple(entries)
    matrix = np.empty((len(entries), dim), dtype=np.float32)
    for row, (_, vector) in zip(matrix, entries):
        row[:] = np.ravel(vector)
    return Collection(name, tuple(record for record, _ in entries), matrix)


def _collection(name, vectors):
    return collection(name, vectors.shape[1], (
        (VectorRecord(publication_id=f"PUB{i:05d}", segment_index=i % 5,
                      text=f"{name}/{i}", topic_keywords=("kw",)), v)
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


_SUBJECTS = ("Amyloid beta", "Cognitive decline", "Age", "Med_count",
             "Faecalibacterium prausnitzii", "Akkermansia muciniphila",
             "Alistipes putredinis", "Bacteroides fragilis",
             "Eubacterium rectale", "Shannon diversity", "Intestinal barrier",
             "Immunosenescence", "Trimethylamine", "Frailty_score")
_VERBS = ("was associated with", "correlated with", "was depleted in",
          "rose together with", "differed between", "predicted",
          "declined alongside")
_FILLER = ("study cohort evidence mechanism levels role signal marker "
           "patients visit follow-up reported analysis controls groups "
           "finding abundance observed higher lower risk samples").split()
_STEPS = (("Patient Overview", "State the patient's demographics, visit "
           "number, and overall context."),
          ("Key Clinical Markers", "Describe the clinical covariates and "
           "flag values outside typical ranges."),
          ("Gut Microbiome Profile", "Characterize the gut microbiome "
           "composition and the dominant taxa."),
          ("Diversity Assessment", "Interpret the alpha and beta diversity "
           "against the healthy reference."))


def _passage(rng):
    sentences = []
    for _ in range(int(rng.integers(6, 12))):
        subject, other = rng.choice(_SUBJECTS, 2, replace=False)
        filler = " ".join(rng.choice(_FILLER, int(rng.integers(4, 9))))
        sentences.append(f"{subject} {rng.choice(_VERBS)} {other.lower()}; "
                         f"{filler}.")
    return " ".join(sentences)


def _step_query(rng):
    title, instruction = _STEPS[int(rng.integers(len(_STEPS)))]
    taxa = ", ".join(rng.choice(_SUBJECTS, int(rng.integers(3, 6)),
                                replace=False))
    return (f"{title}: {instruction} Alzheimer's disease probability "
            f"{rng.uniform(0, 100):.2f}%; leading features: {taxa}")


def _hash_traffic():
    """Step-query-like and passage-like texts through the offline hash
    embedder: the benchmark store's shapes and threshold."""
    rng = np.random.default_rng(51)
    backend = OfflineHashEmbedder(dim=1536)
    colls = tuple(
        _collection(name, backend.embed_many(
            [_passage(rng) for _ in range(rows)]))
        for name, rows in (("alzheimers", 553), ("microbiome", 247)))
    queries = backend.embed_many([_step_query(rng) for _ in range(16)])
    return colls, queries, 5, 0.36


def text_traffic():
    """(collections, embedder, texts, k, threshold): the benchmark store's
    shapes and threshold, with passage texts kept on the records, and 130
    step-query-like texts (two full query batches and one partial)."""
    rng = np.random.default_rng(52)
    backend = OfflineHashEmbedder(dim=1536)
    colls = []
    for name, rows in (("alzheimers", 553), ("microbiome", 247)):
        passages = [_passage(rng) for _ in range(rows)]
        colls.append(collection(name, backend.dim, (
            (VectorRecord(publication_id=f"PUB{i:05d}", segment_index=i % 5,
                          text=text, topic_keywords=("kw",)), vector)
            for i, (text, vector) in enumerate(
                zip(passages, backend.embed_many(passages))))))
    texts = [_step_query(rng) for _ in range(130)]
    return tuple(colls), backend, texts, 5, 0.36


def _zero_rows_at_threshold_zero():
    """Zero-norm rows score exactly the threshold, and k falls among them."""
    colls, queries, _, _ = _zero_rows()
    return colls, queries, 70, 0.0


def _extreme_magnitudes():
    """Rows whose float32 products overflow (components near 1e37 and
    1e38; row 2 sums to inf - inf = nan, and is a hit of query 4) or
    underflow (subnormal components), most close to a query, among
    ordinary rows."""
    dim = 1536
    queries = np.abs(_normal(61, 5, dim)) + np.float32(0.5)
    queries[4] = np.float32(1.0)
    queries[4, 1::2] = np.float32(0.6)
    vectors = _normal(62, 60, dim)
    vectors[0] = queries[0] * np.float32(3e37)
    vectors[1] = queries[1] / queries[1].max() * np.float32(3e38)
    vectors[1, ::8] *= -1
    vectors[2] = np.float32(3e38)
    vectors[2, 1::2] = np.float32(-3e38)
    vectors[3] = queries[1] * np.float32(1e-41)
    vectors[4, ::2] = np.float32(2e-45)
    vectors[5] = queries[2] * np.float32(1e-30)
    vectors[6] = queries[3] * np.float32(1e30)
    return (_collection("extreme", vectors),), queries, 8, 0.2


def _underflow_above_kth():
    """Rows pointing away from the query, row 3 with subnormal components:
    its float32 products underflow, leaving a screen value far above its
    similarity of -1 and above the best row's screen value, which lies in
    another block."""
    dim = 1536
    query = _normal(63, 1, dim)
    vectors = -(query + _normal(64, 64, dim))
    vectors[3] = -query[0] * np.float32(1e-44)
    return (_collection("underflow", vectors),), query, 1, -1.0


def _k_above_rows():
    colls, queries, _, _ = _two_collections(5, -1.0)()
    return colls, queries, 600, 0.1


def float64_similarities(coll, q):
    """The nonzero rows' float64 similarities with one normalised query,
    from 16-row blocks: at one BLAS thread they have the bits of one
    whole-matrix product, and unlike its bits theirs do not depend on the
    thread count."""
    _, matrix, norms = _scan_matrix(coll)
    return np.concatenate(
        [matrix[rows] @ q for rows in _row_blocks(len(matrix))]) / norms


def _near_duplicates(seed, rows=200, dim=1536):
    """One query and rows a few float32 ulps apart, one in each 16-row
    block among unrelated rows: their similarities lie closer together
    than the float32 screen can tell apart, and each is the only row of
    its block that can be a hit."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=dim)
    vectors = rng.normal(size=(rows, dim)).astype(np.float32)
    near = np.arange(5, rows, 16)
    vectors[near] = base * (1.0 + 1e-6 * rng.normal(size=(near.size, dim)))
    query = (base + 0.5 * rng.normal(size=dim)).astype(np.float32)
    coll = _collection("near", vectors)
    q = _as_query(query, dim)
    exact = float64_similarities(coll, q)
    screen = _screen(coll, q[None, :])[:, 0]
    return coll, query[None, :], exact, screen


def losing_threshold():
    """(collections, queries, k, threshold) and the row that passes the
    threshold in float64 while its screen value falls below it."""
    coll, queries, exact, screen = _near_duplicates(71)
    row = int(np.argmax(exact - screen))
    if screen[row] >= exact[row]:
        raise AssertionError("no row whose screen value is below its "
                             "similarity")
    return ((coll,), queries, coll.count, float(exact[row])), row


def losing_kth():
    """(collections, queries, k, threshold) and a row among the k best in
    float64 whose screen value falls below the k-th screen value."""
    coll, queries, exact, screen = _near_duplicates(72)
    n = coll.count
    for k in range(1, n):
        kth_exact = np.partition(exact, n - k)[n - k]
        kth_screen = np.partition(screen, n - k)[n - k]
        lost = np.flatnonzero((exact >= kth_exact) & (screen < kth_screen))
        if lost.size:
            return ((coll,), queries, k, -1.0), int(lost[0])
    raise AssertionError("the screen ranks every k best as float64 does")


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
        "hash-embedder-traffic": _hash_traffic,
        "zero-norm-rows-threshold-0": _zero_rows_at_threshold_zero,
        "extreme-magnitudes": _extreme_magnitudes,
        "underflow-above-kth": _underflow_above_kth,
        "k-above-row-count": _k_above_rows,
        "threshold-within-eps": lambda: losing_threshold()[0],
        "kth-within-eps": lambda: losing_kth()[0],
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


def oracle_hits():
    """Case id -> per query, the reference hits as JSON-ready lists with
    each similarity in float.hex form."""
    out = {}
    for case_id, build in identity_cases().items():
        collections, queries, k, threshold = build()
        out[case_id] = [
            [[h.publication_id, h.segment_index, h.similarity.hex(),
              h.collection, h.text]
             for h in search_full_scan(collections, q, k, threshold)]
            for q in queries]
    return out


def text_hits():
    """Per ``text_traffic`` text, its reference hits (as ``oracle_hits``)
    from the text's own embedding."""
    collections, backend, texts, k, threshold = text_traffic()
    return [[[h.publication_id, h.segment_index, h.similarity.hex(),
              h.collection, h.text]
             for h in search_full_scan(collections, backend.embed(text), k,
                                       threshold)]
            for text in texts]


def hits_from_json(answers):
    return [tuple(RetrievalHit(publication_id=pub, segment_index=seg,
                               similarity=float.fromhex(sim),
                               collection=coll, text=text)
                  for pub, seg, sim, coll, text in hits)
            for hits in answers]


if __name__ == "__main__":
    if sys.argv[1:] == ["--hits"]:
        print(json.dumps(oracle_hits()))
    elif sys.argv[1:] == ["--text-hits"]:
        print(json.dumps(text_hits()))
    else:
        print(json.dumps(compare_cases()))
