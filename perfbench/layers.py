"""The traced run's per-layer metrics, in the order BENCHMARK.json lists them.

Each entry maps a metric name to (unit, better, source, key): the value is
the per-op mean of span ``key``'s total time ("ms"), self time ("self_ms")
or call count ("calls"), or of counter ``key`` ("count"). Entries with
source "derived" are ratios or differences computed in run.py. README.md
says which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations


def _timed(span: str) -> dict:
    return {f"{span}.ms": ("ms", "lower", "ms", span),
            f"{span}.calls": ("count", "lower", "calls", span)}


def _count(name: str, better: str = "lower", unit: str = "count") -> dict:
    return {name: (unit, better, "count", name)}


def _derived(name: str, unit: str, better: str) -> dict:
    return {name: (unit, better, "derived", name)}


LAYERS = {
    **_timed("ensemble.fit_gbdt"),
    **_timed("ensemble.fit_random_forest"),
    **_timed("ensemble.fit_logistic_regression"),
    **_timed("ensemble.predict_proba"),
    **_timed("ensemble.model_from_dict"),
    **_timed("evaluation.select_features"),
    **_timed("diversity.diversity_profile"),
    "diversity.beta_metrics.calls": ("count", "lower", "calls", "diversity.beta_metrics"),
    **_timed("attribution.explain"),
    "attribution.flatten_tree.calls": ("count", "lower", "calls", "attribution.flatten_tree"),
    **_timed("agents.run_computational"),
    **_derived("agents.run_computational.unique_share", "share", "higher"),
    **_timed("vectorstore.search"),
    **_count("vectorstore.search.records_scanned"),
    **_count("vectorstore.search.hits", better="higher"),
    **_derived("vectorstore.search.empty_share", "share", "lower"),
    **_derived("vectorstore.search.full_share", "share", "higher"),
    **_derived("vectorstore.search.repeat_query_share", "share", "lower"),
    **_timed("embedding.embed"),
    **_count("embedding.chars"),
    **_derived("embedding.repeat_gram_share", "share", "lower"),
    **_timed("embedding.embed_many"),
    **_timed("chunker.read_corpus"),
    **_timed("chunker.segment_text"),
    **_count("chunker.segment_text.segments"),
    "vectorstore.index_corpus.self_ms": ("ms", "lower", "self_ms", "vectorstore.index_corpus"),
    "vectorstore.index_corpus.calls": ("count", "lower", "calls", "vectorstore.index_corpus"),
    **_timed("vectorstore.save_collections"),
    **_count("vectorstore.save_collections.bytes", unit="B"),
    **_timed("vectorstore.load_collections"),
    **_count("vectorstore.load_collections.bytes", unit="B"),
    **_timed("agents.run_summarization"),
    **_timed("agents.run_classification"),
    **_derived("agents.prompt_assembly_ms", "ms", "lower"),
    **_timed("agents.llm"),
    **_count("agents.llm.prompt_tokens"),
    **_count("agents.dropped_history"),
    **_count("agents.dropped_hits"),
    **_timed("agents.render_report"),
    **_derived("agents.sample_ms_p50", "ms", "lower"),
    **_timed("dataset.parse_samples"),
    **_timed("dataset.split_grouped_stratified"),
    **_timed("dataset.draw_eval_cohort"),
    **_timed("dataset.impute"),
    **_derived("process.startup_ms", "ms", "lower"),
    **_derived("cli.self_ms", "ms", "lower"),
    **_derived("trace.overhead_ms", "ms", "lower"),
}
