"""Two-stage agent pipeline: summarization then classification, and the
cohort driver that runs it on every sample of an evaluation cohort.

classify_cohort, which classify and the adam variant of evaluate run,
builds each input the stages read once per cohort. The stages read
their hits from its ``{step query: hits}`` dict and retrieve nothing
themselves.

Each stage assembles one prompt in a fixed order (computational output,
patient history, retrieval-augmented reasoning steps, task), enforces a
hard token budget by dropping oldest history first and lowest-similarity
retrieval passages second, and issues exactly one completion. The
classification stage parses a strict verdict line and emits a
ClassificationReport. With deterministic mock backends the whole
pipeline is a pure function of its inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

from ..config import (
    CLASSIFICATION_TOKEN_BUDGET,
    DEFAULT_FALLBACK_THRESHOLD,
    SUMMARIZATION_TOKEN_BUDGET,
    RunConfig,
)
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


@dataclass
class AgentContext:
    """Mutable per-sample state threaded through the pipeline stages.

    history holds the computational outputs of this participant's prior
    visits in ascending visit order; every entry must strictly precede
    the current visit.
    """

    sample_id: str
    study_id: str
    visit_index: int
    computational: ComputationalOutput
    history: tuple[ComputationalOutput, ...] = ()
    summary: str | None = None
    transcripts: list[StageTranscript] = field(default_factory=list)

    def __post_init__(self):
        self.history = tuple(self.history)
        previous = 0
        for entry in self.history:
            if entry.visit_index <= previous:
                raise ValueError("history must be in ascending visit order")
            previous = entry.visit_index
        if self.history and previous >= self.visit_index:
            raise ValueError("history must strictly precede the current visit")


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


def _run_stage(ctx, hits, backend, stage, budget,
               fallback_threshold=None, summary=None):
    steps = tuple((index, *step) for index, step in enumerate(PROGRAMS[stage], 1))
    queries = stage_queries(ctx.computational, stage)
    step_hits = [[] if hits is None else list(hits[query]) for query in queries]

    history = list(ctx.history)
    dropped_history = 0
    dropped_hits = 0

    def assemble():
        return _build_prompt(stage, ctx.computational, history,
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
        step_lines = tuple(
            f"Step {record.index}: {record.title} | query: {record.query} | "
            f"hits: {len(record.hits)}"
            for record in records
        )
        raise AgentError(
            f"{stage} backend failed: {exc}", transcript=step_lines
        ) from exc
    transcript = StageTranscript(
        stage=stage,
        steps=records,
        prompt=prompt,
        response=response,
        prompt_tokens=estimate_tokens(prompt),
        dropped_history=dropped_history,
        dropped_hits=dropped_hits,
    )
    ctx.transcripts.append(transcript)
    return response, transcript


def run_summarization(ctx: AgentContext, hits, llm: LLMBackend, *,
                      budget: int = SUMMARIZATION_TOKEN_BUDGET) -> str:
    """Run the summarization stage; stores the summary on the context."""
    response, _ = _run_stage(ctx, hits, llm, "summarization", budget)
    ctx.summary = response
    return response


def run_classification(ctx: AgentContext, hits, llm: LLMBackend, *,
                       budget: int = CLASSIFICATION_TOKEN_BUDGET,
                       fallback_threshold: float = DEFAULT_FALLBACK_THRESHOLD,
                       ) -> ClassificationReport:
    """Run the classification stage and assemble the final report."""
    if ctx.summary is None:
        raise AgentError("classification requires a summary; run the "
                         "summarization stage first")
    response, transcript = _run_stage(
        ctx, hits, llm, "classification", budget,
        fallback_threshold=fallback_threshold, summary=ctx.summary,
    )
    verdict = parse_verdict(response)
    step_lines = tuple(
        f"[{entry.stage}] Step {record.index}: {record.title} | "
        f"query: {record.query} | hits: {len(record.hits)}"
        for entry in ctx.transcripts
        for record in entry.steps
    )
    return ClassificationReport(
        sample_id=ctx.sample_id,
        verdict=verdict,
        probability=ctx.computational.probability,
        sections=build_sections(ctx.computational),
        summary=ctx.summary,
        step_transcripts=step_lines,
    )


def run_pipeline(ctx: AgentContext, hits, summarizer: LLMBackend,
                 classifier: LLMBackend, *,
                 summarization_budget: int = SUMMARIZATION_TOKEN_BUDGET,
                 classification_budget: int = CLASSIFICATION_TOKEN_BUDGET,
                 fallback_threshold: float = DEFAULT_FALLBACK_THRESHOLD,
                 ) -> ClassificationReport:
    """Both stages in their fixed order for one sample.

    hits maps each step query (``stage_queries``) to its retrieved hits,
    as classify_cohort's retrieval pass returns them; a query missing
    from it raises KeyError. None retrieves nothing.
    """
    run_summarization(ctx, hits, summarizer, budget=summarization_budget)
    return run_classification(ctx, hits, classifier,
                              budget=classification_budget,
                              fallback_threshold=fallback_threshold)


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
    (sample, context, report) per sample, in cohort order; the context
    holds the sample's computational output, history and stage
    transcripts.

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

    classified = []
    for sample, history in zip(cohort.samples, histories):
        ctx = AgentContext(sample_id=sample.sample_id,
                           study_id=sample.study_id,
                           visit_index=sample.visit_index,
                           computational=outputs[sample],
                           history=tuple(outputs[prior] for prior in history))
        report = run_pipeline(
            ctx, hits, summarizer, classifier,
            summarization_budget=config.summarization_budget,
            classification_budget=config.classification_budget,
            fallback_threshold=config.fallback_threshold)
        classified.append((sample, ctx, report))
    return classified
