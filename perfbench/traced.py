"""Run one ``adam`` command with per-layer timers and counters around it.

Usage: python3 traced.py STATS_JSON ADAM_ARGS...

The benchmark's traced run starts this script instead of
``python -m adam``. It wraps the public functions of each layer at the
names their callers look them up by, plus the mock embedder and LLM
backend methods, calls ``adam.cli.main`` with the given arguments, and
writes what it recorded to STATS_JSON. Nothing under ``src/`` changes;
the wrappers exist only in this process. Time spent updating counters
is excluded from every span, so spans measure the program, not the
tracer; the remaining per-call cost is reported by the benchmark as the
tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path, span name). A function imported by name into
# several modules is wrapped in each of them.
SPANS = (
    ("adam.cli", "main", "cli.main"),
    ("adam.cli", "parse_samples", "dataset.parse_samples"),
    ("adam.cli", "split_grouped_stratified", "dataset.split_grouped_stratified"),
    ("adam.evaluation", "split_grouped_stratified", "dataset.split_grouped_stratified"),
    ("adam.cli", "draw_eval_cohort", "dataset.draw_eval_cohort"),
    ("adam.evaluation", "draw_eval_cohort", "dataset.draw_eval_cohort"),
    ("adam.cli", "impute", "dataset.impute"),
    ("adam.evaluation", "impute", "dataset.impute"),
    ("adam.cli", "select_features", "evaluation.select_features"),
    ("adam.evaluation", "select_features", "evaluation.select_features"),
    ("adam.evaluation", "fit_gbdt", "ensemble.fit_gbdt"),
    ("adam.evaluation", "fit_random_forest", "ensemble.fit_random_forest"),
    ("adam.evaluation", "fit_logistic_regression", "ensemble.fit_logistic_regression"),
    ("adam.ensemble.gbdt", "GBDTModel.predict_proba", "ensemble.predict_proba"),
    ("adam.ensemble.baselines", "RandomForestModel.predict_proba", "ensemble.predict_proba"),
    ("adam.ensemble.baselines", "LogisticRegressionModel.predict_proba", "ensemble.predict_proba"),
    ("adam.cli", "model_from_dict", "ensemble.model_from_dict"),
    ("adam.cli", "run_computational", "agents.run_computational"),
    ("adam.evaluation", "run_computational", "agents.run_computational"),
    ("adam.agents.computational", "explain", "attribution.explain"),
    ("adam.agents.computational", "diversity_profile", "diversity.diversity_profile"),
    ("adam.cli", "run_pipeline", "agents.run_pipeline"),
    ("adam.evaluation", "run_pipeline", "agents.run_pipeline"),
    ("adam.agents.pipeline", "run_summarization", "agents.run_summarization"),
    ("adam.agents.pipeline", "run_classification", "agents.run_classification"),
    ("adam.agents.llm", "TitleEchoMock.complete", "agents.llm"),
    ("adam.agents.llm", "ThresholdMockLLM.complete", "agents.llm"),
    ("adam.cli", "render_report", "agents.render_report"),
    ("adam.vectorstore", "search", "vectorstore.search"),
    ("adam.embedding", "OfflineHashEmbedder.embed", "embedding.embed"),
    ("adam.embedding", "OfflineHashEmbedder.embed_many", "embedding.embed_many"),
    ("adam.cli", "read_corpus", "chunker.read_corpus"),
    ("adam.vectorstore", "segment_text", "chunker.segment_text"),
    ("adam.cli", "index_corpus", "vectorstore.index_corpus"),
    ("adam.cli", "save_collections", "vectorstore.save_collections"),
    ("adam.cli", "load_collections", "vectorstore.load_collections"),
)
# Called too often to time without distorting the caller; counted only.
COUNTED = (
    ("adam.diversity", "beta_metrics", "diversity.beta_metrics"),
    ("adam.attribution", "flatten_tree", "attribution.flatten_tree"),
)
# A span is not recorded inside these parents: embed_many calls embed once
# per text, and those calls belong to indexing, not to query embedding.
NOT_INSIDE = {"embedding.embed": "embedding.embed_many"}


class Tracer:
    """Spans with self time, plus counters, on a clock that excludes the
    tracer's own bookkeeping."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.sample_ms: list[float] = []
        self._stack: list[list] = []  # [span name, child seconds]
        self._paused = 0.0
        self._sample_start = None
        self._seen_queries: set[bytes] = set()
        self._seen_grams: set[str] = set()
        self._computed: set[tuple] = set()
        self._models: dict = {}  # keeps ids in _computed from being reused

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def span(self, name: str, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        skip_inside = NOT_INSIDE.get(name)

        def wrapper(*args, **kwargs):
            if skip_inside and self._stack and self._stack[-1][0] == skip_inside:
                return fn(*args, **kwargs)
            if name == "agents.run_computational" and self._sample_start is None:
                self._sample_start = self.clock()
            frame = [name, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.ms[name] += 1000.0 * elapsed
                self.self_ms[name] += 1000.0 * (elapsed - frame[1])
                self.calls[name] += 1
            if hook is not None:
                paused = time.perf_counter()
                hook(result, *args, **kwargs)
                self._paused += time.perf_counter() - paused
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters recorded after a span returns ---------------------------

    def _on_agents_run_computational(self, result, sample, clinical_names,
                                     taxon_names, deployed, reference):
        self._models[id(deployed)] = deployed
        self._computed.add((sample.sample_id, id(deployed)))
        self.counts["agents.run_computational.distinct"] = len(self._computed)

    def _on_agents_run_pipeline(self, result, *args, **kwargs):
        if self._sample_start is None:
            return
        self.sample_ms.append(1000.0 * (self.clock() - self._sample_start))
        self._sample_start = None

    def _on_stage(self, ctx):
        transcript = ctx.transcripts[-1]
        self.counts["agents.dropped_history"] += transcript.dropped_history
        self.counts["agents.dropped_hits"] += transcript.dropped_hits

    def _on_agents_run_summarization(self, result, ctx, *args, **kwargs):
        self._on_stage(ctx)

    def _on_agents_run_classification(self, result, ctx, *args, **kwargs):
        self._on_stage(ctx)

    def _on_agents_llm(self, result, backend, request):
        from adam.agents.llm import estimate_tokens

        self.counts["agents.llm.prompt_tokens"] += estimate_tokens(request.user)

    def _on_vectorstore_search(self, result, collections, query, k=5,
                               threshold=None):
        import numpy as np
        from adam.vectorstore import Collection

        if isinstance(collections, Collection):
            collections = (collections,)
        self.counts["vectorstore.search.records_scanned"] += sum(
            c.count for c in collections)
        self.counts["vectorstore.search.hits"] += len(result)
        self.counts["vectorstore.search.empty"] += len(result) == 0
        self.counts["vectorstore.search.full"] += len(result) == k
        key = np.asarray(query).tobytes()
        self.counts["vectorstore.search.repeat"] += key in self._seen_queries
        self._seen_queries.add(key)

    def _on_embedding_embed(self, result, backend, text):
        self.counts["embedding.chars"] += len(text)
        grams = [text[i:i + 3] for i in range(len(text) - 2)] or [text]
        for gram in grams:
            if gram in self._seen_grams:
                self.counts["embedding.repeat_grams"] += 1
            else:
                self._seen_grams.add(gram)
        self.counts["embedding.grams"] += len(grams)

    def _on_chunker_segment_text(self, result, *args, **kwargs):
        self.counts["chunker.segment_text.segments"] += len(result)

    def _on_vectorstore_save_collections(self, result, *args, **kwargs):
        self.counts["vectorstore.save_collections.bytes"] += sum(
            Path(p).stat().st_size for p in result)

    def _on_vectorstore_load_collections(self, result, directory, *args,
                                         **kwargs):
        self.counts["vectorstore.load_collections.bytes"] += sum(
            p.stat().st_size for p in Path(directory).glob("*.advec"))


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; returns the ones that do not."""
    missing = []
    for targets, make in ((SPANS, tracer.span), (COUNTED, tracer.counter)):
        for module_name, path, name in targets:
            found = _resolve(module_name, path)
            if found is None:
                missing.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            setattr(owner, attr, make(name, getattr(owner, attr)))
    return missing


def main() -> int:
    stats_path = Path(sys.argv[1])
    argv = sys.argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    import adam.cli

    start = time.perf_counter()
    status = adam.cli.main(argv)
    main_ms = 1000.0 * (time.perf_counter() - start)
    stats = {
        "main_ms": main_ms,
        "ms": dict(tracer.ms),
        "self_ms": dict(tracer.self_ms),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "sample_ms": tracer.sample_ms,
        "missing": missing,
    }
    stats_path.write_text(json.dumps(stats, sort_keys=True), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
