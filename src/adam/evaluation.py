"""Seeded evaluation protocol and cross-model statistical comparison.

One trial = one seed: draw a group-disjoint stratified split, impute
with training medians, keep the strongest features by split gain, fit
each requested model, and score it on a fixed-size evaluation cohort
drawn from the held-out studies. The "adam" variant routes every cohort
sample through the three-agent pipeline and scores its verdicts; with
the deterministic mock backends the whole run is a pure function of
(dataset, seeds, configuration).

Per-seed F1 vectors from two runs are compared with Mann-Whitney U,
Levene's test, a variance F-test, and Cohen's d.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .agents import (
    AgentContext,
    ClassificationReport,
    DeployedModel,
    ThresholdMockLLM,
    TitleEchoMock,
    run_computational_many,
    run_pipeline,
)
from .config import RunConfig
from .dataset import (
    Sample,
    SampleSet,
    SplitResult,
    draw_eval_cohort,
    feature_medians,
    impute,
    split_grouped_stratified,
)
from .ensemble import (
    BinaryMetrics,
    GBDTParams,
    accuracy,
    auc_score,
    evaluate_binary,
    feature_gains,
    fit_gbdt,
    fit_logistic_regression,
    fit_random_forest,
    precision_recall_f1,
    run_search,
)
from .errors import (
    AdamError,
    DegenerateStatisticError,
    EmptyInputError,
    FormatError,
    read_csv,
)
from .stats import cohens_d, levene_test, mann_whitney_u, variance_f_test

MODEL_TAGS = ("baseline-gbdt", "baseline-rf", "baseline-lr", "adam")
CSV_FIELDS = ("seed", "model", "accuracy", "auc", "f1")


@dataclass(frozen=True)
class TrialResult:
    seed: int
    model: str
    metrics: BinaryMetrics
    cohort_size: int


@dataclass(frozen=True)
class SeedFailure:
    seed: int
    model: str  # offending model tag, or "setup" for split/cohort failures
    message: str


@dataclass(frozen=True)
class EvaluationRun:
    trials: tuple[TrialResult, ...]
    failures: tuple[SeedFailure, ...]


def select_features(X, y, n_features: int, seed: int = 0) -> np.ndarray:
    """Indices of the strongest features by total split gain, ascending.

    A screening ensemble with default parameters ranks the columns;
    ties fall back to column order. n_features <= 0 keeps everything.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    if n_features <= 0 or n_features >= d:
        return np.arange(d)
    screen = fit_gbdt(X, np.asarray(y, dtype=float), seed=seed)
    gains = feature_gains(screen)
    order = np.lexsort((np.arange(d), -gains))
    return np.sort(order[:n_features])


def fit_tuned_gbdt(X, y, groups, config: RunConfig, seed: int):
    """GBDT with TPE-tuned parameters when config asks for tuning trials,
    else with the defaults."""
    if config.tuning_trials > 0:
        search = run_search(X, y, groups, n_trials=config.tuning_trials,
                            seed=seed, n_folds=config.tuning_folds)
        params = GBDTParams(**search.best_params)
        return fit_gbdt(X, y, params, seed=seed)
    return fit_gbdt(X, y, seed=seed)


@dataclass(frozen=True)
class SeedFit:
    """One seed's training side: the split, the training median of every
    column, the screened column indices (ascending), the imputed screened
    training matrix, and the deployed tuned GBDT (None if not fitted)."""

    split: SplitResult
    medians: np.ndarray
    selected: np.ndarray
    X_train: np.ndarray
    y_train: np.ndarray
    deployed: DeployedModel | None

    def screened(self, samples: SampleSet) -> np.ndarray:
        """The samples' matrix imputed with the training medians, restricted
        to the screened columns."""
        return impute(samples.feature_matrix(), self.medians)[:, self.selected]


def fit_seed(sample_set: SampleSet, config: RunConfig, seed: int,
             with_gbdt: bool = True) -> SeedFit:
    """The per-seed recipe shared by train and evaluate: group-disjoint
    split, training medians, imputation, feature screen, and (when
    with_gbdt) the tuned GBDT deployed on the screened columns."""
    split = split_grouped_stratified(sample_set, config.split_fraction, seed)
    train = split.train
    raw = train.feature_matrix()
    medians = feature_medians(raw)
    X_train = impute(raw, medians)
    y_train = train.labels()
    selected = select_features(X_train, y_train, config.n_features, seed=seed)
    X_train = X_train[:, selected]
    deployed = None
    if with_gbdt:
        names = train.feature_names
        deployed = DeployedModel(
            model=fit_tuned_gbdt(X_train, y_train, train.study_ids(), config,
                                 seed),
            feature_names=tuple(names[j] for j in selected),
            medians={names[j]: float(medians[j]) for j in selected})
    return SeedFit(split=split, medians=medians, selected=selected,
                   X_train=X_train, y_train=y_train, deployed=deployed)


def healthy_reference(train: SampleSet) -> SampleSet:
    """The healthy (label 0) samples of a training set, the reference
    community for beta diversity."""
    healthy = [s.sample_id for s in train.samples if s.label == 0]
    if not healthy:
        raise EmptyInputError("training partition has no healthy samples "
                              "to serve as the beta-diversity reference")
    return train.subset(healthy)


@dataclass(frozen=True)
class ClassifiedSample:
    sample: Sample
    context: AgentContext  # computational output, history and transcripts
    report: ClassificationReport


def classify_cohort(cohort, test_set, deployed, reference, searcher,
                    summarizer, classifier,
                    config: RunConfig) -> Iterator[ClassifiedSample]:
    """Run the three-agent pipeline on every cohort sample, in cohort order.

    A sample's history is its earlier visits in test_set, keeping the
    first sample of a repeated visit index. Before the first sample is
    yielded, the computational agent runs once on every distinct visit
    the cohort needs (its samples and their histories, in first-use
    order), so a visit it rejects stops the run before any report. The
    token budgets, fallback threshold and model names come from config.
    """
    histories = []
    for sample in cohort.samples:
        history = []
        last_visit = 0
        for prior in test_set.prior_visits(sample):
            if prior.visit_index <= last_visit:
                continue  # duplicate visit index: keep the first sample
            history.append(prior)
            last_visit = prior.visit_index
        histories.append(history)
    visits = list(dict.fromkeys(
        visit for sample, history in zip(cohort.samples, histories)
        for visit in (sample, *history)))
    outputs = dict(zip(visits, run_computational_many(
        visits, cohort.clinical_names, cohort.taxon_names, deployed, reference)))

    for sample, history in zip(cohort.samples, histories):
        ctx = AgentContext(sample_id=sample.sample_id,
                           study_id=sample.study_id,
                           visit_index=sample.visit_index,
                           computational=outputs[sample],
                           history=tuple(outputs[prior] for prior in history))
        report = run_pipeline(
            ctx, searcher, summarizer, classifier,
            summarization_budget=config.summarization_budget,
            classification_budget=config.classification_budget,
            fallback_threshold=config.fallback_threshold,
            summarization_model=config.summarization_model,
            classification_model=config.classification_model)
        yield ClassifiedSample(sample=sample, context=ctx, report=report)


def _run_one_seed(sample_set, seed, config: RunConfig, models, summarizer,
                  classifier, searcher) -> list[TrialResult]:
    fit = fit_seed(sample_set, config, seed,
                   with_gbdt="baseline-gbdt" in models or "adam" in models)
    test = fit.split.test
    cohort = draw_eval_cohort(test, config.n_pos, config.n_neg, seed)
    y, X_cohort = cohort.labels(), fit.screened(cohort)
    baselines = {
        "baseline-gbdt": lambda: fit.deployed.model,
        "baseline-rf": lambda: fit_random_forest(fit.X_train, fit.y_train,
                                                 seed=seed),
        "baseline-lr": lambda: fit_logistic_regression(fit.X_train,
                                                       fit.y_train),
    }
    results = []
    for tag in models:
        if tag != "adam":
            metrics = evaluate_binary(
                y, baselines[tag]().predict_proba(X_cohort),
                threshold=config.fallback_threshold)
        else:
            # verdicts score accuracy and F1; probabilities score the AUC
            items = list(classify_cohort(
                cohort, test, fit.deployed, healthy_reference(fit.split.train),
                searcher, summarizer, classifier, config))
            yhat = np.asarray([item.report.verdict == "Yes" for item in items],
                              dtype=float)
            precision, recall, f1 = precision_recall_f1(y, yhat)
            metrics = BinaryMetrics(
                accuracy=accuracy(y, yhat), precision=precision,
                recall=recall, f1=f1, auc=auc_score(
                    y, [item.context.computational.probability
                        for item in items]))
        results.append(TrialResult(seed=seed, model=tag, metrics=metrics,
                                   cohort_size=len(cohort.samples)))
    return results


def run_seeded_trials(sample_set: SampleSet, seeds,
                      config: RunConfig | None = None,
                      models=MODEL_TAGS, summarizer=None, classifier=None,
                      searcher=None) -> EvaluationRun:
    """Evaluate every requested model on every seed.

    A failing seed aborts the run unless config.tolerate_failures is
    set, in which case it is recorded and skipped in aggregation. The
    adam variant defaults to the deterministic mock backends when no
    LLM clients are supplied. config.jobs > 1 fans independent seeds
    out to worker processes; results are identical to a sequential run.
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
        summarizer = summarizer if summarizer is not None else TitleEchoMock()
        classifier = classifier if classifier is not None else ThresholdMockLLM()

    trials: list[TrialResult] = []
    failures: list[SeedFailure] = []

    def record(seed, resolve):
        try:
            trials.extend(resolve())
        except AdamError as exc:
            if not config.tolerate_failures:
                raise
            failures.append(SeedFailure(seed=seed, model="setup",
                                        message=str(exc)))

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
    return EvaluationRun(trials=tuple(trials), failures=tuple(failures))


def write_trials_csv(trials, path) -> None:
    """One row per (seed, model): seed, model, accuracy, auc, f1.

    An undefined AUC (single-class cohort) is stored as an empty cell.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for trial in trials:
            m = trial.metrics
            auc = "" if m.auc is None else f"{m.auc:.17g}"
            writer.writerow([trial.seed, trial.model,
                             f"{m.accuracy:.17g}", auc, f"{m.f1:.17g}"])


def _seed_cell(text: str) -> int:
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError
    return int(text)


def _metric_cell(text: str) -> float:
    """A plain finite number in [0, 1] (nan fails the range check)."""
    value = float(text)
    if "_" in text or not 0.0 <= value <= 1.0:
        raise ValueError
    return value


_TRIAL_CELLS = {
    "seed": _seed_cell,
    "model": str,
    "accuracy": _metric_cell,
    "auc": lambda text: None if text == "" else _metric_cell(text),
    "f1": _metric_cell,
}


def read_trials_csv(path) -> list[dict]:
    """Rows written by write_trials_csv, with typed values.

    A wrong header, a row with the wrong field count, a non-integer
    seed, or an accuracy, auc or f1 that is not a finite number in
    [0, 1] raises FormatError naming the file (and line); an empty auc
    cell reads as None.
    """
    records = read_csv(path)
    if next(records, (1, None))[1] != list(CSV_FIELDS):
        raise FormatError(f"{path}: expected header {','.join(CSV_FIELDS)}")
    rows = []
    for line, record in records:
        if not record:
            continue
        if len(record) != len(CSV_FIELDS):
            raise FormatError(f"{path}: line {line}: expected {len(CSV_FIELDS)} fields")
        typed = {}
        for (field, parse), text in zip(_TRIAL_CELLS.items(), record):
            try:
                typed[field] = parse(text)
            except ValueError:
                raise FormatError(
                    f"{path}: line {line}: bad {field} value {text!r}") from None
        rows.append(typed)
    return rows


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


@dataclass(frozen=True)
class Undefined:
    """A statistic the inputs leave undefined, with the reason why."""
    reason: str


@dataclass(frozen=True)
class ComparisonSummary:
    n_adam: int
    n_baseline: int
    adam_mean_f1: float
    baseline_mean_f1: float
    adam_std_f1: float | Undefined
    baseline_std_f1: float | Undefined
    variance_ratio: float | Undefined  # baseline variance / adam variance
    mann_whitney: tuple[float, float]  # (U, p)
    levene: tuple[float, float] | Undefined  # (W, p)
    f_test: tuple[float, float] | Undefined  # (F, p)
    cohens_d: float | Undefined


def _f1_vector(values) -> np.ndarray:
    out = [float(v.metrics.f1) if isinstance(v, TrialResult) else float(v)
           for v in values]
    if not out:
        raise EmptyInputError("no F1 values to compare")
    return np.asarray(out)


def _variance(x: np.ndarray) -> float:
    if x.size < 2:
        raise DegenerateStatisticError("each group needs at least 2 values")
    return float(np.var(x, ddof=1))


def _std(x: np.ndarray) -> float:
    return math.sqrt(_variance(x))


def _variance_ratio(a: np.ndarray, b: np.ndarray) -> float:
    """var(b) / var(a), inf when only var(a) is zero."""
    var_a, var_b = _variance(a), _variance(b)
    if var_a == 0.0:
        if var_b == 0.0:
            raise DegenerateStatisticError(
                "variance ratio undefined: both variances are zero")
        return math.inf
    return var_b / var_a


def _defined(statistic, *args):
    """The statistic's value, or Undefined when its inputs rule it out."""
    try:
        return statistic(*args)
    except DegenerateStatisticError as exc:
        return Undefined(str(exc))


def compare_models(adam, baseline) -> ComparisonSummary:
    """Statistical comparison of two per-seed F1 vectors.

    Accepts TrialResult sequences or raw F1 sequences. The variance
    ratio and F statistic are oriented baseline over adam, so values
    above 1 mean the baseline is more variable. A statistic the data
    leaves undefined (fewer than 2 values, zero variance) is recorded
    as Undefined with the reason instead of aborting the comparison.
    """
    a = _f1_vector(adam)
    b = _f1_vector(baseline)
    return ComparisonSummary(
        n_adam=a.size,
        n_baseline=b.size,
        adam_mean_f1=float(np.mean(a)),
        baseline_mean_f1=float(np.mean(b)),
        adam_std_f1=_defined(_std, a),
        baseline_std_f1=_defined(_std, b),
        variance_ratio=_defined(_variance_ratio, a, b),
        mann_whitney=mann_whitney_u(a, b),
        levene=_defined(levene_test, a, b),
        f_test=_defined(variance_f_test, b, a),
        cohens_d=_defined(cohens_d, a, b),
    )


def _pair(value) -> tuple:
    """A (statistic, p) pair, or the same Undefined in both places."""
    return (value, value) if isinstance(value, Undefined) else value


def format_summary(summary: ComparisonSummary) -> str:
    """Key-value block plus a small table, ready to print or save.

    An undefined statistic prints as ``undefined (<reason>)``.
    """
    u_stat, u_p = summary.mann_whitney
    w_stat, w_p = _pair(summary.levene)
    f_stat, f_p = _pair(summary.f_test)
    pairs = [
        ("n_adam", summary.n_adam),
        ("n_baseline", summary.n_baseline),
        ("adam_mean_f1", summary.adam_mean_f1),
        ("baseline_mean_f1", summary.baseline_mean_f1),
        ("adam_std_f1", summary.adam_std_f1),
        ("baseline_std_f1", summary.baseline_std_f1),
        ("variance_ratio_baseline_over_adam", summary.variance_ratio),
        ("mann_whitney_u", u_stat),
        ("mann_whitney_p", u_p),
        ("levene_w", w_stat),
        ("levene_p", w_p),
        ("f_statistic", f_stat),
        ("f_test_p", f_p),
        ("cohens_d", summary.cohens_d),
    ]
    lines = [f"{key}: undefined ({value.reason})" if isinstance(value, Undefined)
             else f"{key}: {value:.17g}" for key, value in pairs]
    lines.append("")
    header = f"{'model':<10} {'n':>4} {'mean_f1':>9} {'std_f1':>8} {'var_f1':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, n, mean, std in (
            ("adam", summary.n_adam, summary.adam_mean_f1, summary.adam_std_f1),
            ("baseline", summary.n_baseline, summary.baseline_mean_f1,
             summary.baseline_std_f1)):
        spread = (f"{'undefined':>8} {'undefined':>8}"
                  if isinstance(std, Undefined)
                  else f"{std:>8.4f} {std ** 2:>8.4f}")
        lines.append(f"{name:<10} {n:>4} {mean:>9.4f} {spread}")
    lines.append("")
    return "\n".join(lines)
