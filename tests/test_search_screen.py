"""The float32 screen of search_many: its error bound, the cases that sit
on its losing side, and its hits at this process's BLAS thread count.

``search_oracle`` builds every case; its full float64 scan is the
reference. The losing-side cases place a hit within eps of the threshold
or of the k-th similarity with its float32 screen value on the wrong
side, so a search without eps would drop it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adam.vectorstore import (
    _as_query,
    _screen,
    _screen_error_bound,
    search_many,
)
from search_oracle import (
    _collection,
    _extreme_magnitudes,
    _normal,
    _scan_matrix,
    float64_similarities,
    hits_from_json,
    identity_cases,
    losing_kth,
    losing_threshold,
)

TESTS = Path(__file__).resolve().parent
CASES = identity_cases()
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _exact(coll, queries):
    """(nonzero rows x queries) float64 similarities."""
    return np.stack([float64_similarities(coll, q) for q in queries], axis=1)


def _normalised(coll, queries):
    return np.stack([_as_query(q, coll.dim) for q in queries])


def test_bound_is_computed_from_the_dimension():
    assert _screen_error_bound(1536) == pytest.approx(9.16e-5, rel=1e-3)
    assert _screen_error_bound(1536) > 1536 * 2.0 ** -24
    assert _screen_error_bound(64) < _screen_error_bound(1536)
    assert _screen_error_bound(2 ** 25) == np.inf


def test_bound_holds_where_every_product_has_one_sign():
    # For non-negative vectors sum |q_i m_i| is the dot product itself,
    # so no cancellation hides the float32 rounding.
    rng = np.random.default_rng(81)
    dim = 1536
    coll = _collection("positive", np.abs(rng.normal(size=(400, dim)))
                       .astype(np.float32))
    queries = _normalised(coll, np.abs(rng.normal(size=(8, dim))))
    error = np.abs(_screen(coll, queries) - _exact(coll, queries))
    assert 0.0 < error.max() <= _screen_error_bound(dim)


def test_threshold_case_keeps_a_hit_the_screen_puts_below_it():
    (collections, queries, k, threshold), row = losing_threshold()
    coll = collections[0]
    normalised = _normalised(coll, queries)
    assert _screen(coll, normalised)[row, 0] < threshold
    assert _exact(coll, normalised)[row, 0] == threshold
    hits = search_many(collections, queries, k=k, threshold=threshold)[0]
    assert coll.records[row].text in {h.text for h in hits}


def test_kth_case_keeps_a_hit_the_screen_ranks_below_the_kth():
    (collections, queries, k, threshold), row = losing_kth()
    coll = collections[0]
    screen = _screen(coll, _normalised(coll, queries))[:, 0]
    assert screen[row] < np.sort(screen)[-k]
    hits = search_many(collections, queries, k=k, threshold=threshold)[0]
    assert coll.records[row].text in {h.text for h in hits}


def test_rows_the_screen_cannot_bound_are_always_scored():
    collections, queries, k, threshold = _extreme_magnitudes()
    coll = collections[0]
    screen = _screen(coll, _normalised(coll, queries))
    assert not np.isfinite(screen[:3]).any()
    hits = search_many(collections, queries, k=k, threshold=threshold)
    # Row 2's float32 sum is nan for query 4; its similarity is 0.24.
    assert "extreme/2" in {h.text for h in hits[4]}
    assert {"extreme/0", "extreme/1", "extreme/3", "extreme/5",
            "extreme/6"} <= {h.text for query_hits in hits
                             for h in query_hits}


@pytest.mark.parametrize("rows", [1, 15, 16, 31, 32, 140, 553])
def test_norms_have_the_bits_of_the_whole_matrix_norm(rows):
    vectors = _normal(rows, rows, 1536)
    vectors[::13] = 0.0
    vectors[1::7] *= np.float32(1e-30)
    coll = _collection("norms", vectors)
    ids, norms = coll._scan
    _, _, want = _scan_matrix(coll)
    assert norms.tobytes() == want.tobytes()
    assert ids.tolist() == [i for i in range(rows) if i % 13]


@pytest.fixture(scope="module")
def one_thread_hits():
    """Case id -> the reference hits, from a child with one BLAS thread."""
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    path = [str(TESTS.parent / "src"), str(TESTS)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    done = subprocess.run(
        [sys.executable, str(TESTS / "search_oracle.py"), "--hits"],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("case_id", list(CASES))
def test_hits_at_this_thread_count_equal_one_thread_reference(
        one_thread_hits, case_id):
    collections, queries, k, threshold = CASES[case_id]()
    assert search_many(collections, queries, k=k, threshold=threshold) == \
        hits_from_json(one_thread_hits[case_id])

