"""Two-stage agent pipeline: summarization then classification, and the
cohort driver that runs it on every sample of an evaluation cohort.

classify_cohort, which classify and the adam variant of evaluate run,
builds each input the stages read once per cohort: every visit's
computational output and the ``{step query: hits}`` dict of one
retrieval pass. run_pipeline then runs both stages on one visit.

One function, _run_stage, runs either stage. It assembles one prompt in
a fixed order (computational output, patient history,
retrieval-augmented reasoning steps, task), enforces a hard token budget
by dropping oldest history first and lowest-similarity retrieval
passages second, issues exactly one completion and returns the stage's
transcript. The classification stage's reply must hold a strict verdict
line, from which run_pipeline builds the ClassificationReport. Nothing
is mutated along the way, so with deterministic mock backends the whole
pipeline is a pure function of its inputs.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from ..config import RunConfig
from ..dataset import SampleSet
from ..errors import AgentError, BackendError, EmptyInputError, TokenBudgetError
from .computational import ComputationalOutput, run_computational_many
from .llm import (
    LLMBackend,
    LLMRequest,
    estimate_tokens,
    parse_verdict,
    probability_line,
    threshold_line,
)
from .report import (
    ClassificationReport,
    build_sections,
    format_probability,
)
from .steps import PROGRAMS

STEP_CONTEXT_CHARS = 500
HIT_EXCERPT_CHARS = 400
NO_HISTORY_MARKER = "No prior visits"
NO_PASSAGES_MARKER = "No passages retrieved above the similarity threshold."

_SYSTEM_PROMPTS = {
    "summarization": (
        "You are the summarization agent of a gut-microbiome Alzheimer's "
        "screening pipeline. Work through the reasoning program step by "
        "step and produce a faithful narrative summary of this visit."
    ),
    "classification": (
        "You are the classification agent of a gut-microbiome Alzheimer's "
        "screening pipeline. Work through the reasoning program step by "
        "step, then answer with a single verdict. The first line of your "
        "answer must be exactly 'Prediction: Yes' or 'Prediction: No'."
    ),
}


class StepRecord(NamedTuple):
    """One reasoning step after retrieval: what was asked and what came back."""

    index: int
    title: str
    query: str
    hits: tuple


class StageTranscript(NamedTuple):
    stage: str
    steps: tuple[StepRecord, ...]
    prompt: str
    response: str
    prompt_tokens: int
    dropped_history: int
    dropped_hits: int


def _excerpt(text: str, limit: int) -> str:
    return " ".join(text.split())[:limit]


def _computational_block(output: ComputationalOutput) -> str:
    lines = [
        f"Sample {output.sample_id} (study {output.study_id}, "
        f"visit {output.visit_index})",
        probability_line(output.probability),
    ]
    lines.extend(f"{title}: {body}" for title, body in build_sections(output))
    return "\n".join(lines)


def _history_line(entry: ComputationalOutput) -> str:
    leading = ", ".join(name for name, _ in entry.top_features[:3])
    return (
        f"Visit {entry.visit_index}: model probability of AD "
        f"{format_probability(entry.probability)}; Shannon Index: "
        f"{entry.diversity.shannon:.2f}; leading features: "
        f"{leading if leading else 'none'}"
    )


def _context_digest(output: ComputationalOutput) -> str:
    features = ", ".join(name for name, _ in output.top_features[:5])
    taxa = ", ".join(name for name, _ in output.taxa_highlights[:4])
    return (
        f"Alzheimer's disease probability "
        f"{format_probability(output.probability)}; leading features: "
        f"{features if features else 'none'}; dominant taxa: "
        f"{taxa if taxa else 'none'}"
    )


def stage_queries(output: ComputationalOutput, stage: str) -> list[str]:
    """The retrieval query of each of the stage's steps, in step order.

    A query depends only on the stage and the computational output, so a
    cohort's queries are all known before any stage runs.
    """
    digest = _context_digest(output)
    return [f"{title}: {_excerpt(f'{instruction} {digest}', STEP_CONTEXT_CHARS)}"
            for title, instruction in PROGRAMS[stage]]


# A record's text recurs across many prompts; its excerpt is cut once.
@functools.lru_cache(maxsize=4096)
def _hit_excerpt(text: str) -> str:
    return _excerpt(text, HIT_EXCERPT_CHARS)


def _hit_line(hit) -> str:
    return (
        f"- {hit.publication_id} segment {hit.segment_index} "
        f"(similarity {hit.similarity:.4f}): {_hit_excerpt(hit.text)}"
    )


def _build_prompt(stage, output, history, steps, step_hits,
                  summary, fallback_threshold):
    lines = ["# Computational output", _computational_block(output), ""]
    lines.append("# Patient history")
    if history:
        lines.extend(_history_line(entry) for entry in history)
    else:
        lines.append(NO_HISTORY_MARKER)
    lines.append("")
    if summary is not None:
        lines.extend(["# Current visit summary", summary.rstrip(), ""])
    lines.append("# Reasoning program")
    lines.append("Work through the following steps in order.")
    for (index, title, instruction), hits in zip(steps, step_hits):
        lines.append("")
        lines.append(f"## Step {index}: {title}")
        lines.append(f"Instruction: {instruction}")
        lines.append("Relevant literature:")
        if hits:
            lines.extend(_hit_line(hit) for hit in hits)
        else:
            lines.append(NO_PASSAGES_MARKER)
    lines.extend(["", "# Task"])
    if stage == "summarization":
        lines.append(
            "Produce a comprehensive narrative summary of this visit that "
            "reflects every step of the reasoning program."
        )
    else:
        lines.append(threshold_line(fallback_threshold))
        lines.append(
            "Apply the reasoning program and decide whether this patient "
            "should be classified as having Alzheimer's disease. Answer on "
            "the first line with exactly 'Prediction: Yes' or "
            "'Prediction: No', optionally followed by ' - ' and a brief "
            "justification."
        )
    return "\n".join(lines)


def _drop_weakest_hit(step_hits) -> bool:
    """Remove the globally lowest-similarity hit; later steps lose ties."""
    weakest = None
    for step_index, hits in enumerate(step_hits):
        for position, hit in enumerate(hits):
            key = (hit.similarity, -step_index, -position)
            if weakest is None or key < weakest[0]:
                weakest = (key, step_index, position)
    if weakest is None:
        return False
    step_hits[weakest[1]].pop(weakest[2])
    return True


def _step_line(record: StepRecord) -> str:
    return (f"Step {record.index}: {record.title} | query: {record.query} | "
            f"hits: {len(record.hits)}")


def _run_stage(stage, output, history, hits, backend, budget,
               summary=None, fallback_threshold=None) -> StageTranscript:
    """One stage's prompt and completion for one visit; changes nothing
    it is given."""
    steps = tuple((index, *step) for index, step in enumerate(PROGRAMS[stage], 1))
    queries = stage_queries(output, stage)
    step_hits = [[] if hits is None else list(hits[query]) for query in queries]

    history = list(history)
    dropped_history = 0
    dropped_hits = 0

    def assemble():
        return _build_prompt(stage, output, history,
                             steps, step_hits, summary, fallback_threshold)

    prompt = assemble()
    while estimate_tokens(prompt) > budget:
        if history:
            history.pop(0)
            dropped_history += 1
        elif _drop_weakest_hit(step_hits):
            dropped_hits += 1
        else:
            raise TokenBudgetError(
                f"{stage} prompt needs {estimate_tokens(prompt)} tokens but "
                f"the budget is {budget} and nothing more can be dropped"
            )
        prompt = assemble()

    records = tuple(
        StepRecord(index=index, title=title, query=query, hits=tuple(hits))
        for (index, title, _), query, hits in zip(steps, queries, step_hits)
    )
    request = LLMRequest(system=_SYSTEM_PROMPTS[stage], user=prompt)
    try:
        response = backend.complete(request)
    except BackendError as exc:
        raise AgentError(
            f"{stage} backend failed: {exc}",
            transcript=tuple(_step_line(record) for record in records),
        ) from exc
    return StageTranscript(
        stage=stage,
        steps=records,
        prompt=prompt,
        response=response,
        prompt_tokens=estimate_tokens(prompt),
        dropped_history=dropped_history,
        dropped_hits=dropped_hits,
    )


def run_pipeline(output: ComputationalOutput, history, hits,
                 summarizer: LLMBackend, classifier: LLMBackend,
                 config: RunConfig) -> tuple[ClassificationReport, tuple]:
    """Both stages in their fixed order for one visit:
    (report, (summarization transcript, classification transcript)).

    history holds the computational outputs of the visit's earlier
    visits, oldest first (``SampleSet.prior_visits``). hits maps each
    step query (``stage_queries``) to its retrieved hits, as
    classify_cohort's retrieval pass returns them; a query missing from
    it raises KeyError. None retrieves nothing. The token budgets and
    the fallback threshold come from config.
    """
    summarization = _run_stage("summarization", output, history, hits,
                               summarizer, config.summarization_budget)
    classification = _run_stage(
        "classification", output, history, hits, classifier,
        config.classification_budget, summary=summarization.response,
        fallback_threshold=config.fallback_threshold)
    transcripts = (summarization, classification)
    report = ClassificationReport(
        sample_id=output.sample_id,
        verdict=parse_verdict(classification.response),
        probability=output.probability,
        sections=build_sections(output),
        summary=summarization.response,
        step_transcripts=tuple(f"[{t.stage}] {_step_line(record)}"
                               for t in transcripts for record in t.steps),
    )
    return report, transcripts


def healthy_reference(train: SampleSet) -> SampleSet:
    """The healthy (label 0) samples of a training set, the reference
    community for beta diversity."""
    healthy = [s.sample_id for s in train.samples if s.label == 0]
    if not healthy:
        raise EmptyInputError("training partition has no healthy samples "
                              "to serve as the beta-diversity reference")
    return train.subset(healthy)


def classify_cohort(cohort, test_set, deployed, reference, searcher,
                    summarizer, classifier, config: RunConfig) -> list[tuple]:
    """Run the three-agent pipeline on every cohort sample and return
    (sample, report, transcripts) per sample, in cohort order, as
    run_pipeline returns them.

    A sample's history is ``test_set.prior_visits(sample)``. Before the
    first stage runs, the computational agent runs once on every
    distinct visit the cohort needs (its samples and their histories,
    in first-use order), and then one retrieval pass sends the cohort's
    distinct step queries (in cohort order, summarization before
    classification) to searcher.query_many, which embeds and scans them
    in batches of 64. So a visit the computational agent rejects, a
    step query that fails to embed or a failing remote embedder stops
    the run before any stage. The token budgets and fallback threshold
    come from config; the model names are the backends' own.
    """
    histories = [test_set.prior_visits(sample) for sample in cohort.samples]
    visits = tuple(dict.fromkeys(
        visit for sample, history in zip(cohort.samples, histories)
        for visit in (sample, *history)))
    outputs = dict(zip(visits, run_computational_many(
        SampleSet(cohort.clinical_names, cohort.taxon_names, visits),
        deployed, reference)))
    hits = None
    if searcher is not None:
        texts = list(dict.fromkeys(
            query for sample in cohort.samples for stage in PROGRAMS
            for query in stage_queries(outputs[sample], stage)))
        hits = dict(zip(texts, searcher.query_many(texts)))
    return [(sample, *run_pipeline(outputs[sample],
                                   tuple(outputs[prior] for prior in history),
                                   hits, summarizer, classifier, config))
            for sample, history in zip(cohort.samples, histories)]
