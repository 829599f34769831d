"""SemanticSearch.query_many in batches of QUERY_BATCH texts.

Each text must get exactly the hits it gets alone: from a one-text call
in this process, and from ``search_oracle.search_full_scan`` of its own
embedding in a child process with one BLAS thread. Similarities compare
by ``float.hex``. A batch's float32 screen is one wider matrix product,
which two BLAS threads may split differently; the hits must not change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adam.vectorstore import QUERY_BATCH, SemanticSearch
from search_oracle import text_traffic

TESTS = Path(__file__).resolve().parent
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _hex(answers):
    return [[(h.publication_id, h.segment_index, h.similarity.hex(),
              h.collection, h.text) for h in hits] for hits in answers]


class _CountingEmbedder:
    """The embedder, recording the size of each embed_many call."""

    def __init__(self, backend):
        self.backend, self.batches = backend, []
        self.dim = backend.dim

    def embed_many(self, texts):
        self.batches.append(len(texts))
        return self.backend.embed_many(texts)


@pytest.fixture(scope="module")
def traffic():
    collections, backend, texts, k, threshold = text_traffic()
    embedder = _CountingEmbedder(backend)
    searcher = SemanticSearch(collections, embedder, k=k, threshold=threshold)
    return searcher, embedder, texts


@pytest.fixture(scope="module")
def batched(traffic):
    searcher, embedder, texts = traffic
    embedder.batches.clear()
    answers = searcher.query_many(texts)
    return answers, list(embedder.batches)


@pytest.fixture(scope="module")
def one_thread_reference():
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    path = [str(TESTS.parent / "src"), str(TESTS)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    done = subprocess.run(
        [sys.executable, str(TESTS / "search_oracle.py"), "--text-hits"],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_two_full_batches_and_one_partial(batched, traffic):
    _, _, texts = traffic
    answers, batches = batched
    assert QUERY_BATCH == 64
    assert batches == [64, 64, 2]
    assert len(answers) == len(texts) == 130
    # the traffic holds texts with no hit, with some and with a full top k
    assert {len(hits) for hits in answers} >= {0, 5}
    assert any(0 < len(hits) < 5 for hits in answers)


def test_batches_equal_one_text_calls(batched, traffic):
    searcher, _, texts = traffic
    alone = [searcher.query_many([text])[0] for text in texts]
    assert _hex(batched[0]) == _hex(alone)


def test_batches_equal_the_full_scan_reference(batched, one_thread_reference):
    want = [[tuple(hit) for hit in hits] for hits in one_thread_reference]
    assert _hex(batched[0]) == want


def test_no_text_embeds_nothing(traffic):
    searcher, embedder, _ = traffic
    embedder.batches.clear()
    assert searcher.query_many([]) == []
    assert embedder.batches == []
