"""Seeded evaluation protocol, trial persistence, and model comparison."""

import math

import numpy as np
import pytest

from adam.comparison import (
    CSV_FIELDS,
    ComparisonSummary,
    TrialResult,
    Undefined,
    compare_models,
    format_summary,
    read_trials_csv,
    write_trials_csv,
)
from adam.config import RunConfig
from adam.ensemble.gbdt import fit_gbdt, model_to_dict
from adam.ensemble.metrics import BinaryMetrics
from adam.errors import EmptyInputError, FormatError, StratificationError
from adam.evaluation import (
    MODEL_TAGS,
    aggregate_trials,
    deploy_screen,
    fit_seed,
    format_metrics_table,
    run_seeded_trials,
    screen_features,
)
from adam.stats import cohens_d, levene_test, mann_whitney_u, variance_f_test

SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="session")
def eval_run(sample_set):
    return run_seeded_trials(sample_set, SEEDS)


def test_trial_grid_counts_and_order(eval_run):
    trials, failures = eval_run
    assert not failures
    assert [(t.seed, t.model) for t in trials] == \
        [(seed, tag) for seed in SEEDS for tag in MODEL_TAGS]
    assert all(t.cohort_size == 30 for t in trials)
    for trial in trials:
        m = trial.metrics
        for value in (m.accuracy, m.precision, m.recall, m.f1):
            assert 0.0 <= value <= 1.0
        assert m.auc is not None and 0.0 <= m.auc <= 1.0


def test_adam_equals_thresholded_ensemble_per_seed(eval_run):
    trials, _ = eval_run
    by_tag = {}
    for trial in trials:
        by_tag.setdefault(trial.model, []).append(trial)
    for gbdt_trial, adam_trial in zip(by_tag["baseline-gbdt"], by_tag["adam"]):
        assert gbdt_trial.seed == adam_trial.seed
        assert gbdt_trial.metrics == adam_trial.metrics


def test_parallel_run_matches_sequential(sample_set, eval_run):
    again = run_seeded_trials(sample_set, SEEDS, config=RunConfig(jobs=2))
    assert again == eval_run


def test_trials_csv_round_trip(eval_run, tmp_path):
    trials, _ = eval_run
    path = tmp_path / "trials.csv"
    write_trials_csv(trials, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    rows = read_trials_csv(path)
    assert len(rows) == len(trials)
    for trial, row in zip(trials, rows):
        assert row["seed"] == trial.seed
        assert row["model"] == trial.model
        assert row["accuracy"] == trial.metrics.accuracy
        assert row["auc"] == trial.metrics.auc
        assert row["f1"] == trial.metrics.f1
    twin = tmp_path / "again.csv"
    write_trials_csv(trials, twin)
    assert path.read_bytes() == twin.read_bytes()


def test_trials_csv_handles_undefined_auc(tmp_path):
    metrics = BinaryMetrics(accuracy=1.0, precision=1.0, recall=1.0,
                            f1=1.0, auc=None)
    trial = TrialResult(seed=7, model="baseline-lr", metrics=metrics,
                        cohort_size=4)
    path = tmp_path / "one.csv"
    write_trials_csv([trial], path)
    rows = read_trials_csv(path)
    assert rows[0]["auc"] is None

    bad = tmp_path / "bad.csv"
    bad.write_text("seed,model,f1\n0,adam,1.0\n")
    with pytest.raises(FormatError) as err:
        read_trials_csv(bad)
    assert str(err.value) == f"{bad}: expected header seed,model,accuracy,auc,f1"


@pytest.mark.parametrize("row, message", [
    ("0,baseline-lr,1", "line 3: expected 5 fields"),
    ("0,adam,1,1,1,1", "line 3: expected 5 fields"),
    ("0.5,adam,1,1,1", "line 3: bad seed value '0.5'"),
    ("x,adam,1,1,1", "line 3: bad seed value 'x'"),
    ("1,adam,1,1,1.7", "line 3: bad f1 value '1.7'"),
    ("1,adam,1,1,-3", "line 3: bad f1 value '-3'"),
    ("1,adam,1,1,nan", "line 3: bad f1 value 'nan'"),
    ("1,adam,1,1,", "line 3: bad f1 value ''"),
    ("1,adam,inf,1,1", "line 3: bad accuracy value 'inf'"),
    ("1,adam,1,high,1", "line 3: bad auc value 'high'"),
    ("1,adam,1,0_5,1", "line 3: bad auc value '0_5'"),
])
def test_trials_csv_rejects_malformed_rows(tmp_path, row, message):
    path = tmp_path / "trials.csv"
    path.write_text(f"seed,model,accuracy,auc,f1\n0,adam,1,,0.5\n{row}\n")
    with pytest.raises(FormatError) as err:
        read_trials_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_aggregate_matches_numpy(eval_run):
    trials, _ = eval_run
    aggregates = aggregate_trials(trials)
    assert set(aggregates) == set(MODEL_TAGS)
    for tag in MODEL_TAGS:
        rows = [t for t in trials if t.model == tag]
        for metric in ("accuracy", "auc", "f1"):
            values = np.array([getattr(t.metrics, metric) for t in rows])
            mean, std, n = aggregates[tag][metric]
            assert n == len(SEEDS)
            assert mean == pytest.approx(values.mean(), abs=0)
            assert std == pytest.approx(values.std(ddof=1), abs=0)


def test_aggregate_skips_undefined_auc():
    metrics = BinaryMetrics(accuracy=0.5, precision=0.5, recall=0.5,
                            f1=0.5, auc=None)
    trials = [TrialResult(seed=s, model="baseline-rf", metrics=metrics,
                          cohort_size=2) for s in (0, 1)]
    stats = aggregate_trials(trials)["baseline-rf"]
    assert stats["f1"] == (0.5, 0.0, 2)
    assert stats["auc"][2] == 0
    assert math.isnan(stats["auc"][0])
    table = format_metrics_table(trials)
    assert "n/a" in table
    with pytest.raises(EmptyInputError):
        format_metrics_table([])


def test_one_seed_std_is_undefined():
    """A sample std needs two values: one seed gives nan and prints n/a,
    as compare reports the same statistic undefined."""
    metrics = BinaryMetrics(accuracy=1.0, precision=1.0, recall=1.0,
                            f1=1.0, auc=None)
    trials = [TrialResult(seed=0, model="baseline-lr", metrics=metrics,
                          cohort_size=2)]
    stats = aggregate_trials(trials)["baseline-lr"]
    assert stats["f1"][0] == 1.0 and stats["f1"][2] == 1
    assert math.isnan(stats["f1"][1])
    row = format_metrics_table(trials).splitlines()[-1]
    assert row.split() == ["baseline-lr", "1.0000", "+-", "n/a",
                           "n/a", "1.0000", "+-", "n/a"]


def test_metrics_table_layout(eval_run):
    trials, _ = eval_run
    table = format_metrics_table(trials)
    lines = table.splitlines()
    assert lines[0] == f"Model performance averaged across {len(SEEDS)} random seeds"
    rows = lines[4:8]
    assert [r.split()[0] for r in rows] == list(MODEL_TAGS)
    assert all("+-" in r for r in rows)


def test_run_validation(sample_set):
    with pytest.raises(EmptyInputError):
        run_seeded_trials(sample_set, [])
    with pytest.raises(ValueError, match="distinct"):
        run_seeded_trials(sample_set, [1, 1])
    with pytest.raises(ValueError, match="unknown model"):
        run_seeded_trials(sample_set, [0], models=("gbdt",))


def test_failure_handling(sample_set):
    studies = sorted({s.study_id for s in sample_set.samples})[:3]
    tiny = sample_set.restrict_to_studies(studies)
    with pytest.raises(StratificationError) as err:
        run_seeded_trials(tiny, [0], models=("baseline-lr",))
    trials, failures = run_seeded_trials(
        tiny, [0, 1], config=RunConfig(tolerate_failures=True),
        models=("baseline-lr",))
    assert trials == ()
    assert len(failures) == 2
    assert all(message == str(err.value) for _, message in failures)


def test_tuned_variant_keeps_equivalence(sample_set):
    (gbdt_trial, adam_trial), _ = run_seeded_trials(
        sample_set, [0], config=RunConfig(tuning_trials=4),
        models=("baseline-gbdt", "adam"))
    assert gbdt_trial.metrics == adam_trial.metrics


def test_config_defaults():
    config = RunConfig()
    assert config.split_fraction == 0.75
    assert (config.n_pos, config.n_neg) == (15, 15)
    assert config.n_features == 20
    assert config.tuning_trials == 0
    assert config.fallback_threshold == 0.5
    assert config.tolerate_failures is False


# --- feature screening --------------------------------------------------------

def test_select_features_finds_signal():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((240, 6))
    y = (X[:, 3] + 0.2 * X[:, 1] > 0).astype(float)
    chosen = screen_features(X, y, 2)[0]
    assert chosen.shape == (2,)
    assert 3 in chosen
    assert list(chosen) == sorted(chosen)
    assert np.array_equal(screen_features(X, y, 2)[0], chosen)
    assert np.array_equal(screen_features(X, y, 0)[0], np.arange(6))
    assert np.array_equal(screen_features(X, y, 99)[0], np.arange(6))


def _used_features(model) -> np.ndarray:
    used = np.zeros(model.n_features, dtype=bool)
    for tree in model.trees:
        used[tree.feature[tree.feature >= 0]] = True
    return np.flatnonzero(used)


@pytest.mark.parametrize("params", [{"n_trees": 15},
                                    {"n_trees": 15, "subsample_fraction": 0.7}])
def test_deployed_screen_equals_a_fresh_fit_on_its_columns(params):
    # 40 noisy columns, one of them heavily tied; each screen splits on 22-31
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 40))
        X[:, 5] = np.round(X[:, 5])
        y = (X[:, 0] + 0.5 * X[:, 3] + 0.7 * rng.standard_normal(120) > 0).astype(float)
        screen = fit_gbdt(X, y, params, seed=seed)
        used = _used_features(screen)
        unused = np.setdiff1d(np.arange(40), used)
        selected = np.union1d(used, rng.choice(unused, unused.size // 2, replace=False))
        model = deploy_screen(screen, selected)
        assert model is not None and model.n_features == selected.size
        fresh = fit_gbdt(X[:, selected], y, params, seed=seed)
        assert model_to_dict(model) == model_to_dict(fresh)
        assert np.array_equal(model.predict_margin(X[:, selected]),
                              fresh.predict_margin(X[:, selected]))
        # a screen that splits on a column left out is not deployed
        assert deploy_screen(screen, np.setdiff1d(selected, used[-1:])) is None


def test_fit_seed_deploys_the_screen_or_falls_back_to_a_fresh_fit(sample_set, monkeypatch):
    from adam import evaluation

    fitted = []
    fit_tuned_gbdt = evaluation.fit_tuned_gbdt
    monkeypatch.setattr(evaluation, "fit_tuned_gbdt",
                        lambda *args: fitted.append(args[-1]) or fit_tuned_gbdt(*args))
    for n_features in (20, 1):
        for seed in range(20):
            fit = fit_seed(sample_set, RunConfig(n_features=n_features), seed)
            fresh = fit_gbdt(fit.X_train, fit.y_train, seed=seed)
            assert model_to_dict(fit.deployed.model) == model_to_dict(fresh)
        # every screen splits on the 20 kept columns alone, and on more than
        # one column where one is kept
        assert bool(fitted) == (n_features == 1)


# --- cross-model comparison ---------------------------------------------------

ADAM_F1 = tuple(float(x) for x in (
    ["0.59521553942444849"] + ["0.66054567849098167"] * 2
    + ["0.67094246374079169"] * 7 + ["0.69868889610924167"] * 5
    + ["0.74162912426336969"] * 5 + ["0.77370707044418929"] * 5
    + ["0.8020851737971102"] * 4 + ["0.89762970813175702"]))
BASELINE_F1 = tuple(float(x) for x in (
    ["0.35192065537588474", "0.47550396014758672"]
    + ["0.53211669391348171"] * 3 + ["0.59521553942444849"] * 3
    + ["0.66054567849098167"] * 7 + ["0.69868889610924167"] * 6
    + ["0.77370707044418929"] * 6 + ["0.84430354010855735"] * 2
    + ["0.96577605548683865"]))


def test_comparison_reproduces_reported_statistics():
    summary = compare_models(ADAM_F1, BASELINE_F1)
    assert (summary.n_adam, summary.n_baseline) == (30, 30)
    assert f"{summary.adam_mean_f1:.4f}" == "0.7263"
    assert f"{summary.baseline_mean_f1:.4f}" == "0.6774"
    assert f"{summary.adam_std_f1:.4f}" == "0.0632"
    assert f"{summary.baseline_std_f1:.4f}" == "0.1217"
    assert f"{summary.variance_ratio:.2f}" == "3.71"
    assert f"{summary.f_test[0]:.2f}" == "3.71"
    assert f"{summary.mann_whitney[1]:.4f}" == "0.0418"
    assert f"{summary.levene[1]:.4f}" == "0.0300"
    assert abs(summary.cohens_d - 0.5038) <= 1e-3


def test_comparison_components_match_stats_module():
    a = np.asarray(ADAM_F1)
    b = np.asarray(BASELINE_F1)
    summary = compare_models(ADAM_F1, BASELINE_F1)
    assert summary.mann_whitney == mann_whitney_u(a, b)
    assert summary.levene == levene_test(a, b)
    assert summary.f_test == variance_f_test(b, a)
    assert summary.cohens_d == cohens_d(a, b)
    assert summary.variance_ratio == np.var(b, ddof=1) / np.var(a, ddof=1)
    assert summary.adam_std_f1 == math.sqrt(np.var(a, ddof=1))


def test_comparison_accepts_trials(eval_run):
    trials, _ = eval_run
    adam = [t for t in trials if t.model == "adam"]
    gbdt = [t for t in trials if t.model == "baseline-gbdt"]
    from_trials = compare_models(adam, gbdt)
    from_floats = compare_models([t.metrics.f1 for t in adam],
                                 [t.metrics.f1 for t in gbdt])
    assert from_trials == from_floats


def test_identical_groups_comparison():
    summary = compare_models(ADAM_F1, ADAM_F1)
    assert summary.cohens_d == 0.0
    assert summary.mann_whitney[1] == 1.0
    assert summary.levene == (0.0, 1.0)
    assert summary.f_test[0] == 1.0
    assert summary.f_test[1] == pytest.approx(1.0, rel=1e-12)
    assert summary.variance_ratio == 1.0
    with pytest.raises(EmptyInputError):
        compare_models([], ADAM_F1)


def test_comparison_records_undefined_statistics():
    flat = (1.0,) * 10
    summary = compare_models(ADAM_F1, flat)
    zero = "variance F-test undefined for zero variance"
    assert summary.f_test == Undefined(zero)
    assert summary.variance_ratio == 0.0
    assert summary.mann_whitney == mann_whitney_u(ADAM_F1, flat)
    assert summary.levene == levene_test(ADAM_F1, flat)
    assert summary.cohens_d == cohens_d(ADAM_F1, flat)
    text = format_summary(summary)
    assert f"f_statistic: undefined ({zero})" in text
    assert f"f_test_p: undefined ({zero})" in text
    assert f"levene_p: {summary.levene[1]:.17g}" in text

    assert compare_models(flat, ADAM_F1).variance_ratio == math.inf
    both_flat = compare_models(flat, (0.5,) * 10)
    assert both_flat.variance_ratio == Undefined(
        "variance ratio undefined: both variances are zero")
    assert both_flat.cohens_d == Undefined(
        "Cohen's d undefined: both variances are zero")

    single = compare_models([1.0], [0.9])
    short = Undefined("each group needs at least 2 values")
    assert (single.variance_ratio, single.levene, single.f_test,
            single.cohens_d) == (short,) * 4
    assert single.mann_whitney == mann_whitney_u([1.0], [0.9])
    assert "cohens_d: undefined (each group needs at least 2 values)" in \
        format_summary(single)


def test_format_summary_contents():
    summary = compare_models(ADAM_F1, BASELINE_F1)
    text = format_summary(summary)
    assert f"adam_mean_f1: {summary.adam_mean_f1:.17g}" in text
    assert f"mann_whitney_p: {summary.mann_whitney[1]:.17g}" in text
    assert f"levene_p: {summary.levene[1]:.17g}" in text
    assert f"cohens_d: {summary.cohens_d:.17g}" in text
    assert "variance_ratio_baseline_over_adam: " in text
    lines = text.splitlines()
    assert any(line.startswith("adam ") for line in lines)
    assert any(line.startswith("baseline ") for line in lines)


def test_classify_cohort_computes_each_visit_once(deployment, monkeypatch):
    from collections import Counter

    import adam.agents.pipeline as pipeline
    from adam.agents.llm import ThresholdMockLLM, TitleEchoMock
    from adam.dataset import draw_eval_cohort

    calls = Counter()
    batches = []
    compute = pipeline.run_computational_many

    def counting(visits, *args):
        batches.append(len(visits))
        calls.update(sample.sample_id for sample in visits.samples)
        return compute(visits, *args)

    monkeypatch.setattr(pipeline, "run_computational_many", counting)
    test = deployment["test"]
    cohort = draw_eval_cohort(test, 15, 15, seed=0)
    items = pipeline.classify_cohort(
        cohort, test, deployment["deployed"], deployment["reference"], None,
        TitleEchoMock(), ThresholdMockLLM(), RunConfig())
    assert [sample.sample_id for sample, _, _ in items] == \
        [s.sample_id for s in cohort.samples]
    histories = [test.prior_visits(sample) for sample, _, _ in items]
    needed = {sample.sample_id for sample, _, _ in items} | \
        {h.sample_id for history in histories for h in history}
    assert set(calls) == needed
    assert set(calls.values()) == {1}
    uses = len(items) + sum(len(history) for history in histories)
    assert len(calls) < uses  # some visits serve more than one sample
    assert batches == [len(calls)]  # every visit in one call
    for _, report, _ in items:
        assert report.verdict == \
            ("Yes" if report.probability >= 0.5 else "No")
