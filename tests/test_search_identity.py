"""The blocked scan of search_many against the full-matrix scan it replaced.

The reference is ``search_oracle.search_full_scan``, the per-query scan
that the one-query search ran before: one product of each whole scan
matrix per query. Hits are compared with ``==``, similarities included.
That comparison runs in a child process started with one BLAS thread
(see ``search_oracle``), once for all cases; the in-process tests
compare ``search_many`` with one ``search_many`` call per query at
whatever thread count this process has.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adam.vectorstore import (
    _MIN_TAIL_ROWS,
    _SCAN_BLOCK_ROWS,
    _row_blocks,
    search_many,
)
from search_oracle import identity_cases

TESTS = Path(__file__).resolve().parent
CASES = identity_cases()
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.fixture(scope="module")
def one_thread_comparison():
    """Case id -> "equal" or the first difference, from one child process."""
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    path = [str(TESTS.parent / "src"), str(TESTS)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    done = subprocess.run([sys.executable, str(TESTS / "search_oracle.py")],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("case_id", list(CASES))
def test_blocked_scan_equals_full_matrix_scan(one_thread_comparison, case_id):
    assert one_thread_comparison[case_id] == "equal"


@pytest.mark.parametrize("case_id", list(CASES))
def test_search_many_equals_per_query_search(case_id):
    collections, queries, k, threshold = CASES[case_id]()
    assert search_many(collections, queries, k=k, threshold=threshold) == [
        search_many(collections, [q], k=k, threshold=threshold)[0]
        for q in queries]


def test_empty_batch_and_repeated_query():
    collections, queries, k, threshold = CASES["query-twice"]()
    got = search_many(collections, queries, k=k, threshold=threshold)
    assert got[0] == got[2] and got[0] != got[1]
    assert search_many(collections, [], k=k, threshold=threshold) == []
    assert search_many((), queries, k=k) == [()] * len(queries)


def test_row_blocks_tile_the_rows():
    assert _SCAN_BLOCK_ROWS % 16 == 0 and _MIN_TAIL_ROWS >= 2
    for n in range(1100):
        blocks = _row_blocks(n)
        assert [r for b in blocks for r in range(b.start, b.stop)] == \
            list(range(n))
        assert all(b.start % 16 == 0 for b in blocks)
        assert all(b.stop - b.start >= _MIN_TAIL_ROWS for b in blocks[1:])
        assert all(b.stop - b.start < _SCAN_BLOCK_ROWS + _MIN_TAIL_ROWS
                   for b in blocks)
