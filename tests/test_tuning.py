"""Grouped cross-validation folds and the hyperparameter search loop."""

import random

import numpy as np
import pytest

from adam.ensemble.tuning import (
    Dimension,
    default_space,
    grouped_kfold,
    run_search,
)
from adam.errors import EmptyInputError


def _grouped_data(seed=0, n_groups=12, rows_per=6, gap=4.0):
    rng = np.random.default_rng(seed)
    groups, rows, labels = [], [], []
    for g in range(n_groups):
        label = g % 2
        for _ in range(rows_per):
            groups.append(f"G{g:02d}")
            rows.append(rng.normal(size=4) + np.array([gap * label, 0, 0, 0]))
            labels.append(label)
    return np.array(rows), np.array(labels), np.array(groups)


def test_grouped_kfold_partitions_groups():
    X, y, groups = _grouped_data()
    folds = grouped_kfold(groups, 3, seed=0)
    assert len(folds) == 3
    all_val = np.concatenate([val for _, val in folds])
    assert sorted(all_val.tolist()) == list(range(len(groups)))
    for train, val in folds:
        train_groups = set(groups[train])
        val_groups = set(groups[val])
        assert not train_groups & val_groups
        assert len(train) + len(val) == len(groups)


def test_grouped_kfold_deterministic_and_capped():
    _, _, groups = _grouped_data()
    a = grouped_kfold(groups, 4, seed=5)
    b = grouped_kfold(groups, 4, seed=5)
    for (ta, va), (tb, vb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(va, vb)
    c = grouped_kfold(groups, 4, seed=6)
    assert any(not np.array_equal(va, vc)
               for (_, va), (_, vc) in zip(a, c))
    # fold count capped by the number of distinct groups
    few = grouped_kfold(np.array(["a", "a", "b", "b", "c"]), 10, seed=0)
    assert len(few) == 3


def test_grouped_kfold_guards():
    with pytest.raises(EmptyInputError):
        grouped_kfold(np.array([]), 3, seed=0)
    with pytest.raises(ValueError):
        grouped_kfold(np.array(["only", "only"]), 3, seed=0)


def test_dimension_sampling_types_and_bounds():
    rng = random.Random(0)
    for dim, expected in [
        (Dimension("n", "int", 3, 9), int),
        (Dimension("f", "float", 0.5, 2.0), float),
        (Dimension("g", "log", 1e-3, 10.0), float),
    ]:
        for _ in range(200):
            v = dim.sample(rng)
            assert isinstance(v, expected)
            assert dim.low <= v <= dim.high
        assert dim.from_internal(dim.to_internal(dim.high)) == dim.high
    d = Dimension("n", "int", 3, 9)
    assert d.from_internal(100.0) == 9  # clamped into range
    assert isinstance(d.from_internal(4.2), int)


def test_run_search_deterministic_and_typed():
    X, y, groups = _grouped_data(1)
    best_a, trials_a = run_search(X, y, groups, n_trials=8, seed=3)
    best_b, trials_b = run_search(X, y, groups, n_trials=8, seed=3)
    assert best_a.params == best_b.params
    assert best_a.score == best_b.score
    assert [t.params for t in trials_a] == [t.params for t in trials_b]
    assert len(trials_a) == 8
    assert all(t.error is None for t in trials_a)
    assert isinstance(best_a.params["n_trees"], int)
    assert isinstance(best_a.params["max_depth"], int)
    assert best_a.score > 0.9  # separable data tunes well
    names = {d.name for d in default_space()}
    assert set(best_a.params) == names


def test_run_search_ties_to_earliest():
    X, y, groups = _grouped_data(2)
    best, trials = run_search(X, y, groups, n_trials=6, seed=0)
    earliest = max(trials, key=lambda t: (t.score, -t.index))
    assert best.params == earliest.params
    assert best.score == earliest.score


def test_run_search_guards():
    X, y, groups = _grouped_data(3, n_groups=4, rows_per=3)
    with pytest.raises(ValueError):
        run_search(X, y, groups, n_trials=0)
    with pytest.raises(ValueError, match="one group label per row"):
        run_search(X, y, sorted(set(groups.tolist())), n_trials=1)


def test_fit_seed_tunes_on_one_study_label_per_row(sample_set, monkeypatch):
    """The deployed fit's search folds whole studies: grouped_kfold gets
    each training row's study, never one label per distinct study."""
    from adam.config import RunConfig
    from adam.ensemble import tuning
    from adam.evaluation import fit_seed

    seen = []
    real = tuning.grouped_kfold

    def spy(groups, n_folds, seed):
        folds = real(groups, n_folds, seed)
        seen.append((list(groups), folds))
        return folds

    monkeypatch.setattr(tuning, "grouped_kfold", spy)
    fit = fit_seed(sample_set, RunConfig(tuning_trials=2), 0)
    studies = [s.study_id for s in fit.train.samples]
    assert len(studies) == fit.X_train.shape[0] > len(set(studies))
    assert seen
    for groups, folds in seen:
        assert groups == studies
        for train_idx, val_idx in folds:
            assert train_idx.size + val_idx.size == len(studies)
            assert not {studies[i] for i in train_idx} & {studies[i] for i in val_idx}


def test_run_search_custom_space():
    X, y, groups = _grouped_data(4)
    space = (Dimension("n_trees", "int", 5, 10),
             Dimension("max_depth", "int", 2, 3))
    best, _ = run_search(X, y, groups, n_trials=5, seed=1, space=space)
    assert set(best.params) == {"n_trees", "max_depth"}
    assert 5 <= best.params["n_trees"] <= 10


def test_run_search_scores_a_failing_configuration_zero(monkeypatch):
    from adam.ensemble import tuning
    from adam.errors import DegenerateFitError

    fit_gbdt = tuning.fit_gbdt

    def failing_on_deep_trees(X, y, params, seed):
        if params["max_depth"] == 3:
            raise DegenerateFitError("no split improves the loss")
        return fit_gbdt(X, y, params=params, seed=seed)

    monkeypatch.setattr(tuning, "fit_gbdt", failing_on_deep_trees)
    X, y, groups = _grouped_data(5)
    space = (Dimension("n_trees", "int", 5, 10),
             Dimension("max_depth", "int", 2, 3))
    best, trials = run_search(X, y, groups, n_trials=6, seed=2, space=space)
    failed = [t for t in trials if t.params["max_depth"] == 3]
    assert failed and len(failed) < len(trials)
    assert all(t.score == 0.0 and t.error == "no split improves the loss"
               for t in failed)
    assert all(t.error is None for t in trials if t not in failed)
    assert best.params["max_depth"] == 2


def test_run_search_propagates_a_program_fault(monkeypatch):
    from adam.ensemble import tuning

    def broken(X, y, params, seed):
        raise RuntimeError("a bug, not a configuration")

    monkeypatch.setattr(tuning, "fit_gbdt", broken)
    X, y, groups = _grouped_data(5)
    with pytest.raises(RuntimeError, match="a bug, not a configuration"):
        run_search(X, y, groups, n_trials=3, seed=0)
