"""Agent layer: programs, verdict grammar, mocks, pipeline, reports."""

import math

import numpy as np
import pytest

from adam.agents.computational import ComputationalOutput, run_computational_many
from adam.agents.llm import (
    API_KEY_VARIABLE,
    HttpChatBackend,
    LLMRequest,
    StaticMock,
    ThresholdMockLLM,
    TitleEchoMock,
    estimate_tokens,
    parse_verdict,
    probability_line,
    threshold_line,
)
from adam.agents.pipeline import (
    NO_HISTORY_MARKER,
    NO_PASSAGES_MARKER,
    run_pipeline,
    stage_queries,
)
from adam.agents.report import (
    NO_ATTRIBUTIONS_MARKER,
    SECTION_TITLES,
    ClassificationReport,
    build_sections,
    format_attribution,
    format_probability,
    render_report,
)
from adam.agents.steps import CLASSIFICATION_TITLES, PROGRAMS, SUMMARIZATION_TITLES
from adam.attribution import Attribution
from adam.config import RunConfig
from adam.dataset import Sample, SampleSet
from adam.diversity import DiversityProfile, diversity_profiles
from adam.errors import (
    AgentError,
    AlignmentError,
    BackendError,
    TokenBudgetError,
    VerdictParseError,
)
from adam.chunker import CorpusDocument
from adam.embedding import OfflineHashEmbedder
from adam.vectorstore import RetrievalHit, SemanticSearch, index_corpus


# --- reasoning programs ------------------------------------------------------

def test_program_titles_are_pinned():
    assert SUMMARIZATION_TITLES == (
        "Patient Overview",
        "Key Clinical Markers",
        "Gut Microbiome Profile",
        "Diversity Metrics Analysis",
        "Interactions and Mechanisms",
        "Descriptive Correlation",
        "Machine Learning analysis and probabilistic assessment",
        "Final Comprehensive Descriptive Summary",
    )
    assert CLASSIFICATION_TITLES == (
        "Historical Data Insights",
        "Diversity Metrics & Classification Refinement",
        "Adaptive Threshold Decisioning",
        "Handling Edge Cases & Misclassifications",
        "Comprehensive Summary of this Visit",
        "SHAP Feature Importance",
        "Key Considerations for Prediction and Misclassification Adjustments",
        "Prediction Decision Rules",
    )
    assert tuple(t for t, _ in PROGRAMS["summarization"]) == SUMMARIZATION_TITLES
    assert tuple(t for t, _ in PROGRAMS["classification"]) == CLASSIFICATION_TITLES
    steps = PROGRAMS["summarization"]
    assert len(steps) == 8
    assert all(instruction for _, instruction in steps)


# --- verdict grammar and pinned lines ---------------------------------------

def test_parse_verdict_grammar():
    assert parse_verdict("Prediction: Yes") == "Yes"
    assert parse_verdict("Prediction: No") == "No"
    assert parse_verdict("Prediction: Yes - strong microbiome signal") == "Yes"
    assert parse_verdict("  Prediction: No  \nsecond line ignored") == "No"


@pytest.mark.parametrize("bad", [
    "", "  \n ", "maybe", "Prediction: Maybe",
    "prediction: yes", "Prediction:Yes", "The Prediction: Yes",
    "Prediction: Yes, but", "Verdict: Yes",
])
def test_parse_verdict_rejects(bad):
    with pytest.raises(VerdictParseError) as err:
        parse_verdict(bad)
    assert err.value.raw == bad


def test_pinned_lines_round_trip():
    import re
    from adam.agents.llm import PROBABILITY_PATTERN, THRESHOLD_PATTERN
    for p in (0.0, 0.1, 1.0 / 3.0, 0.5, 0.73123456789012345, 1.0):
        line = probability_line(p)
        match = PROBABILITY_PATTERN.search(line)
        assert match is not None
        assert float(match.group(1)) == p
        assert f"{100.0 * p:.2f}%" in line
    for t in (0.5, 1.0 / 7.0, 0.05):
        match = THRESHOLD_PATTERN.search(threshold_line(t))
        assert match is not None
        assert float(match.group(1)) == t


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 400) == 100


# --- mock backends -----------------------------------------------------------

def _request(user):
    return LLMRequest(system="s", user=user)


def test_static_mock():
    assert StaticMock(reply="hi").complete(_request("anything")) == "hi"


def test_title_echo_mock_preserves_order():
    prompt = "\n".join(f"## Step {i}: {t}"
                       for i, t in enumerate(SUMMARIZATION_TITLES, start=1))
    reply = TitleEchoMock().complete(_request(prompt))
    lines = reply.splitlines()
    assert lines[0] == "Summary of the visit:"
    for i, title in enumerate(SUMMARIZATION_TITLES, start=1):
        assert lines[i] == f"{i}. {title}: reviewed."


def test_threshold_mock_exact_comparison():
    mock = ThresholdMockLLM()
    for p, t, want in [(0.6, 0.5, "Yes"), (0.4, 0.5, "No"),
                       (0.5, 0.5, "Yes"),
                       (0.49999999999999994, 0.5, "No")]:
        user = probability_line(p) + "\n" + threshold_line(t)
        assert mock.complete(_request(user)) == f"Prediction: {want}"
    with pytest.raises(BackendError):
        mock.complete(_request(threshold_line(0.5)))
    with pytest.raises(BackendError):
        mock.complete(_request(probability_line(0.5)))


# --- HTTP chat backend -------------------------------------------------------

class _Response:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body if body is not None else {}

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class _Session:
    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "payload": json, "headers": headers,
                           "timeout": timeout})
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def _chat_body(text):
    return {"choices": [{"message": {"content": text}}]}


def test_http_backend_success_payload():
    session = _Session([_Response(200, _chat_body("ok"))])
    sleeps = []
    backend = HttpChatBackend("http://example.test/chat", model="default-model",
                              api_key="k", session=session,
                              sleeper=sleeps.append)
    assert backend.complete(LLMRequest(system="sys", user="usr")) == "ok"
    (call,) = session.calls
    assert call["url"] == "http://example.test/chat"
    assert call["payload"] == {
        "model": "default-model",
        "messages": [{"role": "system", "content": "sys"},
                     {"role": "user", "content": "usr"}],
        "max_tokens": 1024, "temperature": 0.0}
    assert call["headers"]["Authorization"] == "Bearer k"
    assert call["timeout"] == 120.0
    assert sleeps == []


def test_http_backend_retry_and_fail_paths():
    import requests as _requests
    session = _Session([_Response(429), _Response(503),
                        _Response(200, _chat_body("eventually"))])
    sleeps = []
    backend = HttpChatBackend("http://x", model="m", api_key="k",
                              session=session, sleeper=sleeps.append)
    assert backend.complete(_request("u")) == "eventually"
    assert sleeps == [1.0, 2.0]

    strict = HttpChatBackend("http://x", model="m", api_key="k",
                             session=_Session([_Response(403)]),
                             sleeper=lambda s: None)
    with pytest.raises(BackendError, match="HTTP 403"):
        strict.complete(_request("u"))

    flaky_session = _Session([_requests.Timeout("slow")] * 5)
    flaky = HttpChatBackend("http://x", model="m", api_key="k",
                            session=flaky_session, sleeper=lambda s: None)
    with pytest.raises(BackendError, match="after 5 attempts"):
        flaky.complete(_request("u"))
    assert len(flaky_session.calls) == 5

    broken = HttpChatBackend("http://x", model="m", api_key="k",
                             session=_Session([_Response(200, {"bad": 1})]),
                             sleeper=lambda s: None)
    with pytest.raises(BackendError, match="malformed"):
        broken.complete(_request("u"))


def test_http_backend_non_json_body_keeps_step_transcript(deployment):
    session = _Session([_Response(200, ValueError("<html>"))])
    backend = HttpChatBackend("http://x", model="m", api_key="k",
                              session=session, sleeper=lambda s: None)
    with pytest.raises(BackendError, match="chat response body is not JSON"):
        backend.complete(_request("u"))
    session.script = [_Response(200, ValueError("<html>"))]
    with pytest.raises(AgentError, match="not JSON") as err:
        run_pipeline(*_visit(deployment), None, backend, ThresholdMockLLM(),
                     RunConfig())
    assert len(err.value.transcript) == 8
    assert len(session.calls) == 2


def test_http_backend_credential(monkeypatch):
    monkeypatch.delenv(API_KEY_VARIABLE, raising=False)
    backend = HttpChatBackend("http://x", model="m", session=_Session([]))
    with pytest.raises(BackendError, match=API_KEY_VARIABLE):
        backend.complete(_request("u"))


# --- computational agent -----------------------------------------------------

def _pick_sample(deployment, min_priors=0):
    test = deployment["test"]
    for sample in test.samples:
        if len(test.prior_visits(sample)) >= min_priors:
            return sample
    raise AssertionError("no suitable sample in the test partition")


def _output_for(deployment, sample, reference=None):
    """The computational agent's output for one visit."""
    test = deployment["test"]
    output, = run_computational_many(
        SampleSet(test.clinical_names, test.taxon_names, (sample,)),
        deployment["deployed"],
        deployment["reference"] if reference is None else reference)
    return output


def test_run_computational_invariants(deployment):
    test = deployment["test"]
    deployed = deployment["deployed"]
    reference = deployment["reference"]
    sample = _pick_sample(deployment)
    out = _output_for(deployment, sample)
    assert out.sample_id == sample.sample_id
    assert out.study_id == sample.study_id
    assert out.visit_index == sample.visit_index
    x, = test.subset([sample.sample_id]).model_inputs(deployed.feature_names,
                                                      deployed.medians)
    assert out.probability == float(deployed.model.predict_proba(x)[0])
    att = out.attribution
    assert abs(att.base_value + sum(att.contributions) - att.margin) < 1e-9
    assert out.top_features == att.ranked()[:10]
    profile, = diversity_profiles([sample.taxa], reference.taxa_matrix())
    assert out.diversity == profile
    assert len(out.taxa_highlights) == 8
    abundances = [v for _, v in out.taxa_highlights]
    assert abundances == sorted(abundances, reverse=True)
    assert len(out.clinical_highlights) == len(test.clinical_names)


def test_run_computational_self_reference_distance(deployment):
    test = deployment["test"]
    sample = _pick_sample(deployment)
    self_ref = test.subset([sample.sample_id])
    out = _output_for(deployment, sample, reference=self_ref)
    assert out.diversity.beta_to_reference["bray_curtis"] == 0.0
    assert out.diversity.beta_to_reference["jaccard"] == 0.0


def test_run_computational_axis_guard(deployment):
    test = deployment["test"]
    sample = _pick_sample(deployment)
    stray = SampleSet(clinical_names=(), taxon_names=("OnlyTaxon",),
                      samples=(Sample(sample_id="x", study_id="s",
                                      visit_index=1, label=0,
                                      clinical=(), taxa=(1.0,)),))
    with pytest.raises(AlignmentError):
        _output_for(deployment, sample, reference=stray)


def test_feature_vector_imputes_by_name(deployment):
    test = deployment["test"]
    deployed = deployment["deployed"]
    sample = _pick_sample(deployment)
    holed = Sample(sample_id=sample.sample_id, study_id=sample.study_id,
                   visit_index=sample.visit_index, label=sample.label,
                   clinical=(float("nan"),) + sample.clinical[1:],
                   taxa=sample.taxa)
    names, medians = deployed.feature_names, deployed.medians
    x, = SampleSet(test.clinical_names, test.taxon_names,
                   (holed,)).model_inputs(names, medians)
    name = deployed.feature_names[0]
    assert name == test.clinical_names[0]
    assert x[0] == deployed.medians[name]
    assert not np.isnan(x).any()
    with pytest.raises(AlignmentError):
        SampleSet(test.clinical_names[1:], test.taxon_names,
                  (sample,)).model_inputs(names, medians)


# --- one visit's inputs --------------------------------------------------------

def _visit(deployment, min_priors=0):
    """(output, history) of the first test sample with at least
    min_priors earlier visits, as classify_cohort hands them to
    run_pipeline."""
    test = deployment["test"]
    sample = _pick_sample(deployment, min_priors)
    return (_output_for(deployment, sample),
            tuple(_output_for(deployment, p) for p in test.prior_visits(sample)))


# --- pipeline ----------------------------------------------------------------

def _mocks():
    return TitleEchoMock(), ThresholdMockLLM()


def test_pipeline_verdict_equals_hard_threshold(deployment):
    summarizer, classifier = _mocks()
    for threshold in (0.25, 0.5, 0.75):
        output, history = _visit(deployment)
        report, _ = run_pipeline(output, history, None, summarizer, classifier,
                                 RunConfig(fallback_threshold=threshold))
        want = "Yes" if output.probability >= threshold else "No"
        assert report.verdict == want
        assert report.probability == output.probability
        assert report.sections == build_sections(output)


def test_pipeline_prompt_structure(deployment):
    summarizer, classifier = _mocks()
    output, history = _visit(deployment, min_priors=1)
    report, (samm, clss) = run_pipeline(output, history, None, summarizer,
                                        classifier, RunConfig())
    assert (samm.stage, clss.stage) == ("summarization", "classification")

    for transcript, titles in ((samm, SUMMARIZATION_TITLES),
                               (clss, CLASSIFICATION_TITLES)):
        prompt = transcript.prompt
        assert prompt.startswith("# Computational output")
        assert "# Patient history" in prompt
        assert "# Reasoning program" in prompt
        assert "# Task" in prompt
        assert probability_line(output.probability) in prompt
        positions = [prompt.index(f"## Step {i}: {t}")
                     for i, t in enumerate(titles, start=1)]
        assert positions == sorted(positions)
        assert prompt.count(NO_PASSAGES_MARKER) == 8
        assert f"Visit {history[0].visit_index}: model probability" in prompt
        assert transcript.prompt_tokens == estimate_tokens(prompt)
        assert transcript.dropped_history == 0 and transcript.dropped_hits == 0
        assert len(transcript.steps) == 8

    assert "# Current visit summary" not in samm.prompt
    assert "# Current visit summary" in clss.prompt
    assert report.summary == samm.response and report.summary in clss.prompt
    assert threshold_line(0.5) in clss.prompt
    assert threshold_line(0.5) not in samm.prompt

    # summary echoes all eight summarization titles in order
    for i, title in enumerate(SUMMARIZATION_TITLES, start=1):
        assert f"{i}. {title}: reviewed." in report.summary

    lines = report.step_transcripts
    assert len(lines) == 16
    assert all(line.startswith("[summarization]") for line in lines[:8])
    assert all(line.startswith("[classification]") for line in lines[8:])
    assert CLASSIFICATION_TITLES[0] in lines[8]


def test_pipeline_no_history_marker(deployment):
    summarizer, classifier = _mocks()
    test = deployment["test"]
    sample = next(s for s in test.samples if not test.prior_visits(s))
    _, transcripts = run_pipeline(_output_for(deployment, sample), (), None,
                                  summarizer, classifier, RunConfig())
    assert NO_HISTORY_MARKER in transcripts[0].prompt


def test_pipeline_deterministic(deployment):
    summarizer, classifier = _mocks()
    report_a, transcripts_a = run_pipeline(*_visit(deployment, min_priors=1), None,
                                           summarizer, classifier, RunConfig())
    report_b, transcripts_b = run_pipeline(*_visit(deployment, min_priors=1), None,
                                           summarizer, classifier, RunConfig())
    assert report_a == report_b
    for ta, tb in zip(transcripts_a, transcripts_b):
        assert ta.prompt == tb.prompt
        assert ta.response == tb.response


def test_unparseable_verdict_surfaces_raw_reply(deployment):
    summarizer, _ = _mocks()
    with pytest.raises(VerdictParseError) as err:
        run_pipeline(*_visit(deployment), None, summarizer,
                     StaticMock(reply="I think maybe."), RunConfig())
    assert err.value.raw == "I think maybe."


class _FailingBackend(StaticMock):
    def complete(self, request):
        raise BackendError("simulated outage")


def test_backend_failure_becomes_agent_error(deployment):
    _, classifier = _mocks()
    with pytest.raises(AgentError) as err:
        run_pipeline(*_visit(deployment), None, _FailingBackend(reply=""),
                     classifier, RunConfig())
    assert "simulated outage" in str(err.value)
    assert len(err.value.transcript) == 8
    assert err.value.transcript[0].startswith("Step 1: Patient Overview")


def test_classification_backend_failure_becomes_agent_error(deployment):
    """A classifier outage after a good summary names the classification
    stage and carries that stage's step lines, hit counts included."""
    summarizer, _ = _mocks()
    output, history = _visit(deployment)
    hits = {query: () for stage in PROGRAMS
            for query in stage_queries(output, stage)}
    queries = stage_queries(output, "classification")
    hits[queries[2]] = (_hit("PUBA", 1, 0.95), _hit("PUBB", 2, 0.85))
    with pytest.raises(AgentError) as err:
        run_pipeline(output, history, hits, summarizer,
                     _FailingBackend(reply=""), RunConfig())
    assert str(err.value) == "classification backend failed: simulated outage"
    assert err.value.transcript == tuple(
        f"Step {i}: {title} | query: {query} | hits: {2 if i == 3 else 0}"
        for i, (title, query) in enumerate(zip(CLASSIFICATION_TITLES, queries),
                                           start=1))


# --- budget enforcement --------------------------------------------------------

def _hit(pub, seg, sim, text="passage text " * 10):
    return RetrievalHit(publication_id=pub, segment_index=seg,
                        similarity=sim, collection="c", text=text)


def _summarization(output, history, hits, budget=None):
    """The summarization transcript of a pipeline run at this budget."""
    config = RunConfig() if budget is None else RunConfig(summarization_budget=budget)
    summarizer, classifier = _mocks()
    return run_pipeline(output, history, hits, summarizer, classifier, config)[1][0]


def test_truncation_drops_oldest_history_first(deployment):
    output, history = _visit(deployment, min_priors=2)
    needed = _summarization(output, history, None).prompt_tokens

    tight_output, tight_history = _visit(deployment, min_priors=2)
    assert tight_history == history
    transcript = _summarization(tight_output, tight_history, None,
                                budget=needed - 1)
    assert transcript.dropped_history == 1
    assert transcript.dropped_hits == 0
    oldest, second = history[0], history[1]
    assert f"Visit {oldest.visit_index}: model probability" \
        not in transcript.prompt
    assert f"Visit {second.visit_index}: model probability" in transcript.prompt
    assert transcript.prompt_tokens <= needed - 1


def test_truncation_drops_weakest_hit_after_history(deployment):
    test = deployment["test"]
    sample = next(s for s in test.samples if not test.prior_visits(s))
    output = _output_for(deployment, sample)
    fixed = (_hit("PUBA", 1, 0.95), _hit("PUBB", 2, 0.85))
    hits = {query: fixed if stage == "summarization" else ()
            for stage in PROGRAMS for query in stage_queries(output, stage)}

    full = _summarization(output, (), hits)
    needed = full.prompt_tokens
    assert full.prompt.count("- PUBB segment 2") == 8

    transcript = _summarization(output, (), hits, budget=needed - 1)
    assert transcript.dropped_history == 0
    assert transcript.dropped_hits == 1
    # the weakest similarity goes, and ties resolve to the latest step:
    # all eight steps still carry the strong hit, the weak one survives
    # in the first seven steps only
    assert transcript.prompt.count("- PUBA segment 1") == 8
    assert transcript.prompt.count("- PUBB segment 2") == 7
    assert len(transcript.steps[7].hits) == 1
    assert transcript.steps[7].hits[0].publication_id == "PUBA"
    assert len(transcript.steps[0].hits) == 2


def _step_store():
    """Store where two steps per program match many passages, most none."""
    docs = []
    for j in range(6):
        docs.append(CorpusDocument(
            f"DIV{j}", "", f"{SUMMARIZATION_TITLES[3]}: "
            f"{PROGRAMS['summarization'][3][1]} Cohort {j}. " * 4,
            ("alzheimer",)))
        docs.append(CorpusDocument(
            f"SHAP{j}", "", f"{CLASSIFICATION_TITLES[5]}: "
            f"{PROGRAMS['classification'][5][1]} Model {j}. " * 4,
            ("microbiome",)))
    backend = OfflineHashEmbedder(dim=256)
    collections = index_corpus(docs, backend, segment_length=400, overlap=50)
    return SemanticSearch(tuple(collections.values()), backend, k=5,
                          threshold=0.3)


def test_batched_step_queries_equal_per_query(deployment):
    """Hits of one query_many call over both stages' queries drive the
    stages exactly as one single-text query_many call per query does."""
    searcher = _step_store()
    summarizer, classifier = _mocks()
    output, history = _visit(deployment)
    texts = [query for stage in PROGRAMS
             for query in stage_queries(output, stage)]
    report, transcripts = run_pipeline(
        output, history, dict(zip(texts, searcher.query_many(texts))),
        summarizer, classifier, RunConfig())
    per_query = {text: searcher.query_many([text])[0] for text in texts}
    assert (report, transcripts) == run_pipeline(
        *_visit(deployment), per_query, summarizer, classifier, RunConfig())
    counts = [len(step.hits) for t in transcripts for step in t.steps]
    assert 5 in counts and 0 in counts


def test_token_budget_error_when_nothing_droppable(deployment):
    with pytest.raises(TokenBudgetError, match="nothing more can be dropped"):
        _summarization(*_visit(deployment), None, budget=10)


# --- report ------------------------------------------------------------------

def _hand_output(probability=0.242, top_features=None):
    diversity = DiversityProfile(
        shannon=3.5000001, gini_simpson=0.9299999, berger_parker=0.2298,
        beta_to_reference={"bray_curtis": 0.41237, "jaccard": 0.2,
                           "canberra": 12.345678})
    if top_features is None:
        top_features = (("frailty_score", 0.7978), ("Escherichia coli", -0.123449))
    attribution = Attribution(
        feature_names=("frailty_score", "Escherichia coli"),
        contributions=(0.7978, -0.123449),
        base_value=-0.4, margin=0.27434, probability=probability)
    return ComputationalOutput(
        sample_id="FB001", study_id="ST001", visit_index=2,
        probability=probability, diversity=diversity, attribution=attribution,
        top_features=tuple(top_features),
        clinical_highlights=(("age", 84.0), ("frailty_score", 7.0),
                             ("med_count", float("nan")), ("med_seizure", 1.0)),
        taxa_highlights=(("Escherichia coli", 12.34567),
                         ("Prevotella copri", 1.5)))


def _report(output, verdict, summary):
    """The report run_pipeline builds for this output."""
    return ClassificationReport(sample_id=output.sample_id, verdict=verdict,
                                probability=output.probability,
                                sections=build_sections(output), summary=summary,
                                step_transcripts=())


def test_report_sections_and_formats():
    sections = dict(build_sections(_hand_output()))
    assert tuple(t for t, _ in build_sections(_hand_output())) == SECTION_TITLES
    assert sections["Clinical Indicators"] == "age: 84; frailty_score: 7"
    assert sections["Medications"] == "count: unknown; seizure: 1"
    assert sections["Gut Microbiome Profile"] == \
        "Most abundant taxa: Escherichia coli (12.34567), Prevotella copri (1.50000)"
    assert sections["Diversity Metrics"] == (
        "Shannon Index: 3.50; Gini-Simpson Index: 0.93; "
        "Berger-Parker Index: 0.23; "
        "Bray-Curtis distance to reference: 0.4124; "
        "Canberra distance to reference: 12.3457; "
        "Jaccard distance to reference: 0.2000")
    assert sections["SHAP Feature Importance"] == (
        "Top contributions: frailty_score (SHAP: +0.7978), "
        "Escherichia coli (SHAP: -0.1234)")


def test_report_attribution_marker_when_empty():
    sections = dict(build_sections(_hand_output(top_features=())))
    assert sections["SHAP Feature Importance"] == NO_ATTRIBUTIONS_MARKER


def test_render_report_headline_round_trips():
    report = _report(_hand_output(), "No", "the narrative summary")
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0] == ("Prediction: No - Alzheimer's disease probability "
                        "assessed at 24.20%")
    assert parse_verdict(text) == "No"
    for number, title in enumerate(SECTION_TITLES, start=1):
        assert any(line.startswith(f"{number}. {title}: ")
                   for line in lines)
    assert "Narrative summary:" in lines
    assert lines[lines.index("Narrative summary:") + 1] == \
        "the narrative summary"


def test_report_validation_and_formats():
    with pytest.raises(ValueError):
        _report(_hand_output(), "Maybe", "s")
    assert format_probability(0.242) == "24.20%"
    assert format_probability(1.0) == "100.00%"
    assert format_attribution(0.7978) == "+0.7978"
    assert format_attribution(-0.5) == "-0.5000"
    empty = ClassificationReport(sample_id="x", verdict="Yes",
                                 probability=0.9, sections=(),
                                 summary="", step_transcripts=())
    assert "(no summary)" in render_report(empty)
