"""Seeded evaluation protocol.

One trial = one seed: draw a group-disjoint stratified split, impute
with training medians, keep the strongest features by split gain, fit
each requested model, and score it on a fixed-size evaluation cohort
drawn from the held-out studies. The "adam" variant routes every cohort
sample through the three-agent pipeline (``agents.pipeline.classify_cohort``,
the path classify runs too) and scores its verdicts; with the
deterministic mock backends the whole run is a pure function of
(dataset, seeds, configuration). Only train and evaluate load this
module, and train runs only ``fit_seed``: the agents, the mock backends
and ``comparison`` are imported by the trial driver that uses them. The
trials file and the comparison of two runs live in ``comparison``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .agents.computational import DeployedModel
from .config import RunConfig
from .dataset import (
    SampleSet,
    draw_eval_cohort,
    feature_medians,
    impute,
    split_grouped_stratified,
)
from .ensemble.baselines import fit_logistic_regression, fit_random_forest
from .ensemble.gbdt import GBDTParams, feature_gains, fit_gbdt
from .ensemble.metrics import (
    BinaryMetrics,
    accuracy,
    auc_score,
    evaluate_binary,
    precision_recall_f1,
)
from .errors import AdamError, EmptyInputError

if TYPE_CHECKING:
    from .comparison import TrialResult

MODEL_TAGS = ("baseline-gbdt", "baseline-rf", "baseline-lr", "adam")


def screen_features(X, y, n_features: int, seed: int = 0):
    """(indices of the strongest features by total split gain, ascending;
    the screening GBDT that ranked them, or None if none was fitted).

    A screening ensemble with default parameters ranks the columns;
    ties fall back to column order. n_features <= 0, or at least the
    column count, keeps everything without a screen.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    if n_features <= 0 or n_features >= d:
        return np.arange(d), None
    screen = fit_gbdt(X, np.asarray(y, dtype=float), seed=seed)
    gains = feature_gains(screen)
    order = np.lexsort((np.arange(d), -gains))
    return np.sort(order[:n_features]), screen


def deploy_screen(screen, selected):
    """The screen over the selected (ascending) columns alone, features
    renumbered, or None if it splits on another column. It then equals the
    fit of its parameters and seed on X[:, selected] bit for bit: split
    scores of a column do not depend on the others, ties go to the lowest
    index in both fits, and subsampled rows depend only on seed and round."""
    kept = np.zeros(screen.n_features, dtype=bool)
    kept[selected] = True
    position = np.cumsum(kept) - 1
    trees = []
    for tree in screen.trees:
        split = tree.feature >= 0
        if not kept[tree.feature[split]].all():
            return None
        trees.append(replace(tree, feature=np.where(split, position[tree.feature], -1)))
    return replace(screen, trees=trees, n_features=len(selected))


def fit_tuned_gbdt(X, y, groups, config: RunConfig, seed: int):
    """GBDT with TPE-tuned parameters when config asks for tuning trials,
    else with the defaults."""
    if config.tuning_trials > 0:
        from .ensemble.tuning import run_search

        best, _ = run_search(X, y, groups, n_trials=config.tuning_trials,
                             seed=seed, n_folds=config.tuning_folds)
        return fit_gbdt(X, y, GBDTParams(**best.params), seed=seed)
    return fit_gbdt(X, y, seed=seed)


class SeedFit(NamedTuple):
    """One seed's training side: the train and test partitions, the
    screened column names (in column order) and the training median of
    each, the imputed screened training matrix, and the deployed tuned
    GBDT (None if not fitted)."""

    train: SampleSet
    test: SampleSet
    feature_names: tuple[str, ...]
    medians: dict[str, float]
    X_train: np.ndarray
    y_train: np.ndarray
    deployed: DeployedModel | None

    def screened(self, samples: SampleSet) -> np.ndarray:
        """The samples' screened columns, imputed with the training medians."""
        return samples.model_inputs(self.feature_names, self.medians)


def fit_seed(sample_set: SampleSet, config: RunConfig, seed: int,
             with_gbdt: bool = True) -> SeedFit:
    """The per-seed recipe shared by train and evaluate: group-disjoint
    split, training medians, imputation, feature screen, and (when
    with_gbdt) the tuned GBDT deployed on the screened columns. Untuned,
    that is the screen itself whenever ``deploy_screen`` can renumber it."""
    train, test = split_grouped_stratified(sample_set, config.split_fraction,
                                           seed)
    raw = train.feature_matrix()
    medians = feature_medians(raw)
    X_train = impute(raw, medians)
    y_train = train.labels()
    selected, screen = screen_features(X_train, y_train, config.n_features, seed=seed)
    X_train = X_train[:, selected]
    names = tuple(train.feature_names[j] for j in selected)
    screened_medians = {name: float(medians[j]) for name, j in zip(names, selected)}
    deployed = None
    if with_gbdt:
        model = None
        if screen is not None and config.tuning_trials == 0:
            model = deploy_screen(screen, selected)
        if model is None:
            model = fit_tuned_gbdt(X_train, y_train, [s.study_id for s in train.samples],
                                   config, seed)
        deployed = DeployedModel(model=model, feature_names=names, medians=screened_medians)
    return SeedFit(train=train, test=test, feature_names=names,
                   medians=screened_medians, X_train=X_train, y_train=y_train,
                   deployed=deployed)


def _run_one_seed(sample_set, seed, config: RunConfig, models, summarizer,
                  classifier, searcher) -> tuple[list[TrialResult], list]:
    """One seed's (trials, failures). A model that raises an AdamError
    joins the failures when config.tolerate_failures is set and leaves
    the other models' trials standing; a failure in the shared steps
    (fit_seed, cohort draw) raises for the whole seed."""
    from .agents.pipeline import classify_cohort, healthy_reference
    from .comparison import TrialResult

    fit = fit_seed(sample_set, config, seed,
                   with_gbdt="baseline-gbdt" in models or "adam" in models)
    test = fit.test
    cohort = draw_eval_cohort(test, config.n_pos, config.n_neg, seed)
    y, X_cohort = cohort.labels(), fit.screened(cohort)
    baselines = {
        "baseline-gbdt": lambda: fit.deployed.model,
        "baseline-rf": lambda: fit_random_forest(fit.X_train, fit.y_train,
                                                 seed=seed),
        "baseline-lr": lambda: fit_logistic_regression(fit.X_train,
                                                       fit.y_train),
    }

    def score(tag) -> BinaryMetrics:
        if tag != "adam":
            return evaluate_binary(y, baselines[tag]().predict_proba(X_cohort),
                                   threshold=config.fallback_threshold)
        # verdicts score accuracy and F1; probabilities score the AUC
        items = classify_cohort(
            cohort, test, fit.deployed, healthy_reference(fit.train),
            searcher, summarizer, classifier, config)
        yhat = np.asarray([report.verdict == "Yes" for _, report, _ in items],
                          dtype=float)
        precision, recall, f1 = precision_recall_f1(y, yhat)
        return BinaryMetrics(
            accuracy=accuracy(y, yhat), precision=precision,
            recall=recall, f1=f1, auc=auc_score(
                y, [report.probability for _, report, _ in items]))

    results, failures = [], []
    for tag in models:
        try:
            metrics = score(tag)
        except AdamError as exc:
            if not config.tolerate_failures:
                raise
            failures.append((seed, str(exc)))
            continue
        results.append(TrialResult(seed=seed, model=tag, metrics=metrics,
                                   cohort_size=len(cohort.samples)))
    return results, failures


def run_seeded_trials(sample_set: SampleSet, seeds,
                      config: RunConfig | None = None,
                      models=MODEL_TAGS, summarizer=None, classifier=None,
                      searcher=None) -> tuple[tuple[TrialResult, ...], tuple]:
    """Evaluate every requested model on every seed: (trials, failures).

    A failing seed, or a failing model of a seed, aborts the run unless
    config.tolerate_failures is set, in which case its (seed, message)
    pair joins the failures and only what failed is skipped in
    aggregation. The adam variant defaults to the deterministic mock
    backends when no LLM clients are supplied.
    config.jobs > 1 fans independent seeds out to worker processes;
    results are identical to a sequential run.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise EmptyInputError("no seeds given")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    models = tuple(models)
    unknown = [tag for tag in models if tag not in MODEL_TAGS]
    if unknown:
        raise ValueError(f"unknown model tags {unknown}; valid: {MODEL_TAGS}")
    if config is None:
        config = RunConfig()
    if "adam" in models:
        from .agents.llm import ThresholdMockLLM, TitleEchoMock

        summarizer = summarizer if summarizer is not None else TitleEchoMock()
        classifier = classifier if classifier is not None else ThresholdMockLLM()

    trials: list[TrialResult] = []
    failures: list[tuple[int, str]] = []

    def record(seed, resolve):
        try:
            seed_trials, seed_failures = resolve()
        except AdamError as exc:
            if not config.tolerate_failures:
                raise
            failures.append((seed, str(exc)))
        else:
            trials.extend(seed_trials)
            failures.extend(seed_failures)

    one_seed = partial(_run_one_seed, sample_set, config=config, models=models,
                       summarizer=summarizer, classifier=classifier,
                       searcher=searcher)
    if config.jobs > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.jobs, len(seeds))) as pool:
            futures = [(seed, pool.submit(one_seed, seed)) for seed in seeds]
            for seed, future in futures:
                record(seed, future.result)
    else:
        for seed in seeds:
            record(seed, partial(one_seed, seed))
    return tuple(trials), tuple(failures)


def aggregate_trials(trials) -> dict[str, dict[str, tuple[float, float, int]]]:
    """Per model tag, (mean, sample std, n) for accuracy, auc, and f1.

    Trials whose AUC is undefined are skipped in the auc aggregate. The
    sample std of one value is undefined and reported as nan.
    """
    by_tag: dict[str, list[TrialResult]] = {}
    for trial in trials:
        by_tag.setdefault(trial.model, []).append(trial)
    out = {}
    for tag, rows in by_tag.items():
        stats = {}
        for metric in ("accuracy", "auc", "f1"):
            values = [getattr(t.metrics, metric) for t in rows]
            values = [v for v in values if v is not None]
            if not values:
                stats[metric] = (math.nan, math.nan, 0)
                continue
            arr = np.asarray(values, dtype=float)
            std = float(np.std(arr, ddof=1)) if arr.size > 1 else math.nan
            stats[metric] = (float(arr.mean()), std, arr.size)
        out[tag] = stats
    return out


def format_metrics_table(trials) -> str:
    """Mean +- std per metric per model, one row per model tag; n/a
    stands for a statistic with too few values."""
    trials = list(trials)
    if not trials:
        raise EmptyInputError("no trials to tabulate")
    aggregates = aggregate_trials(trials)
    n_seeds = len({t.seed for t in trials})
    tags = [tag for tag in MODEL_TAGS if tag in aggregates]
    tags += sorted(set(aggregates) - set(tags))
    lines = [f"Model performance averaged across {n_seeds} random seeds", ""]
    header = (f"{'model':<14} {'accuracy':>17} {'auc':>17} {'f1':>17}")
    lines.append(header)
    lines.append("-" * len(header))
    for tag in tags:
        cells = [f"{tag:<14}"]
        for metric in ("accuracy", "auc", "f1"):
            mean, std, n = aggregates[tag][metric]
            spread = f"{std:.4f}" if n > 1 else "n/a"
            cell = "n/a" if n == 0 else f"{mean:.4f} +- {spread}"
            cells.append(f"{cell:>17}")
        lines.append(" ".join(cells))
    lines.append("")
    return "\n".join(lines)
