"""One retrieval pass per cohort.

classify_cohort sends every distinct step query of the cohort to the
searcher in one query_many call, before the first stage runs, and the
stages read their hits from that result. Its reports and transcripts
must equal a run whose hits come from one single-text query_many call
per step query.
"""

import numpy as np
import pytest

from adam.agents import pipeline
from adam.agents.computational import run_computational_many
from adam.agents.llm import ThresholdMockLLM, TitleEchoMock
from adam.agents.pipeline import run_pipeline, stage_queries
from adam.agents.steps import PROGRAMS
from adam.chunker import CorpusDocument
from adam.config import RunConfig
from adam.dataset import SampleSet, draw_eval_cohort
from adam.embedding import OfflineHashEmbedder
from adam.vectorstore import SemanticSearch, index_corpus
from search_oracle import _passage


class _CountingSearcher:
    """The searcher, recording the texts of each query_many call."""

    def __init__(self, searcher):
        self.searcher, self.calls = searcher, []

    def query_many(self, texts):
        self.calls.append(list(texts))
        return self.searcher.query_many(texts)


@pytest.fixture(scope="module")
def searcher():
    """A 40-document store at 64 dimensions; at threshold 0.3 a cohort's
    step queries get no hit, some hits and a full top 5."""
    rng = np.random.default_rng(5)
    docs = [CorpusDocument(f"PUB{i:04d}", "title", _passage(rng),
                           ("alzheimer",) if i % 3 else ("gut",))
            for i in range(40)]
    backend = OfflineHashEmbedder(dim=64)
    return SemanticSearch(tuple(index_corpus(docs, backend).values()),
                          backend, threshold=0.3)


@pytest.fixture(scope="module")
def cohort_run(deployment, searcher):
    counting = _CountingSearcher(searcher)
    test = deployment["test"]
    cohort = draw_eval_cohort(test, 15, 15, seed=0)
    items = pipeline.classify_cohort(
        cohort, test, deployment["deployed"], deployment["reference"],
        counting, TitleEchoMock(), ThresholdMockLLM(), RunConfig())
    return cohort, items, counting.calls


def _visit(deployment, sample):
    """(output, history) of one cohort sample, each visit computed alone."""
    test = deployment["test"]

    def output(visit):
        return run_computational_many(
            SampleSet(test.clinical_names, test.taxon_names, (visit,)),
            deployment["deployed"], deployment["reference"])[0]

    return output(sample), tuple(output(p) for p in test.prior_visits(sample))


def test_one_query_many_call_with_distinct_texts_in_first_use_order(
        cohort_run, deployment):
    cohort, items, calls = cohort_run
    assert len(calls) == 1
    asked = [record.query for _, _, transcripts in items
             for transcript in transcripts for record in transcript.steps]
    assert len(asked) == len(cohort.samples) * 16
    assert calls[0] == list(dict.fromkeys(asked))
    assert len(calls[0]) < len(asked)  # some queries recur across samples
    assert calls[0] == list(dict.fromkeys(
        query for sample, _, _ in items for stage in PROGRAMS
        for query in stage_queries(_visit(deployment, sample)[0], stage)))


def test_cohort_pass_equals_per_stage_retrieval(cohort_run, searcher, deployment):
    _, items, _ = cohort_run
    counts = set()
    for sample, report, transcripts in items:
        output, history = _visit(deployment, sample)
        per_query = {query: searcher.query_many([query])[0]
                     for stage in PROGRAMS
                     for query in stage_queries(output, stage)}
        assert run_pipeline(output, history, per_query, TitleEchoMock(),
                            ThresholdMockLLM(), RunConfig()) == \
            (report, transcripts)
        counts.update(len(record.hits) for transcript in transcripts
                      for record in transcript.steps)
    assert {0, 1, 5} <= counts


def test_a_query_the_pass_did_not_retrieve_raises(cohort_run, deployment):
    _, items, _ = cohort_run
    output, history = _visit(deployment, items[0][0])
    summarization_only = dict.fromkeys(
        stage_queries(output, "summarization"), ())
    classification = stage_queries(output, "classification")
    with pytest.raises(KeyError) as err:
        run_pipeline(output, history, summarization_only, TitleEchoMock(),
                     ThresholdMockLLM(), RunConfig())
    assert err.value.args == (classification[0],)
