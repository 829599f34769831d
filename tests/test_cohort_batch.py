"""One computational pass per cohort: the batched routes keep every bit.

Row-batched TreeSHAP equals the frozen one-row walk of
``tree_oracle.shap_values``, batched diversity equals the single-vector
metrics, and ``run_computational_many`` of one visit equals its row of
the cohort's call. These run with RuntimeWarning as an error in
CI: the batched walk computes both arms of a branch, and the arm not
taken may divide by zero.
"""

import numpy as np
import pytest

import tree_oracle as oracle
from adam import diversity
from adam.agents.computational import run_computational_many
from adam.attribution import explain_rows, shap_values, shap_values_exact
from adam.config import RunConfig
from adam.dataset import SampleSet
from adam.diversity import (
    BETA_METRICS,
    beta_metrics,
    berger_parker_index,
    diversity_profiles,
    gini_simpson_index,
    shannon_index,
)
from adam.ensemble.gbdt import GBDTModel, fit_gbdt
from adam.ensemble.tree import Tree
from adam.errors import DegenerateCommunityError
from adam.evaluation import fit_seed


# --- TreeSHAP ------------------------------------------------------------------------

def _nodes(tree: Tree, node: int = 0) -> oracle.TreeNode:
    """The oracle's linked form of one flat tree."""
    if tree.feature[node] < 0:
        return oracle.TreeNode(cover=tree.cover[node], value=tree.value[node])
    return oracle.TreeNode(cover=tree.cover[node], feature=int(tree.feature[node]),
                           threshold=tree.threshold[node],
                           left=_nodes(tree, int(tree.left[node])),
                           right=_nodes(tree, int(tree.right[node])))


def _oracle_shap(model: GBDTModel, X) -> np.ndarray:
    """The frozen one-row-at-a-time walk on the same trees."""
    old = oracle.GBDTModel(trees=[_nodes(t) for t in model.trees], params=model.params,
                           n_features=model.n_features, base_score=model.base_score)
    return oracle.shap_values(old, X)


def _paths(tree: Tree, node=0, above=()):
    """Split features on each root-to-leaf path."""
    if tree.feature[node] < 0:
        yield above
        return
    below = above + (int(tree.feature[node]),)
    yield from _paths(tree, int(tree.left[node]), below)
    yield from _paths(tree, int(tree.right[node]), below)


def _with_threshold_rows(model: GBDTModel, X) -> np.ndarray:
    """X plus copies of its first rows set to split thresholds exactly."""
    extra = X[:8].copy()
    splits = [(int(f), t) for tree in model.trees
              for f, t in zip(tree.feature, tree.threshold) if f >= 0]
    for row, (f, t) in zip(extra, splits):
        row[f] = t
    return np.vstack([X, extra])


@pytest.fixture(scope="module")
def protocol_model(sample_set):
    fit = fit_seed(sample_set, RunConfig(), 100)
    return fit.deployed.model, fit.screened(fit.test)


def _deep_model():
    """Depth 5 on four-valued features: features repeat along paths."""
    rng = np.random.default_rng(4)
    X = rng.integers(0, 4, size=(160, 5)).astype(float)
    y = ((X[:, 0] * X[:, 1] + X[:, 2] + rng.normal(size=160)) > 4).astype(float)
    model = fit_gbdt(X, y, {"n_trees": 12, "max_depth": 5, "learning_rate": 0.3,
                            "min_child_weight": 0.5}, seed=0)
    return model, X


def _constant_feature_model():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(90, 5))
    X[:, 2] = 1.5
    y = (X[:, 0] - X[:, 4] + 0.3 * rng.normal(size=90) > 0).astype(float)
    return fit_gbdt(X, y, {"n_trees": 10, "max_depth": 3}, seed=0), X


@pytest.mark.parametrize("build", ["protocol", "constant-feature", "deep"])
def test_batched_shap_matches_one_row_oracle(build, protocol_model):
    model, X = {"protocol": lambda: protocol_model,
                "constant-feature": _constant_feature_model,
                "deep": _deep_model}[build]()
    X = _with_threshold_rows(model, X)
    batch = shap_values(model, X)
    assert batch.tobytes() == _oracle_shap(model, X).tobytes()
    for i in (0, len(X) // 2, len(X) - 1):
        assert shap_values(model, X[i]).tobytes() == batch[i].tobytes()


def test_deep_model_exercises_repeats_and_visiting_orders():
    """The deep model has what makes batching delicate: a feature split
    twice on one path (the walk unwinds it), and rows that split apart
    above two multi-leaf subtrees, so their hot-first leaf orders differ
    and a feature's terms from several leaves are added in different
    orders."""
    model, X = _deep_model()
    assert max(len(p) for t in model.trees for p in _paths(t)) >= 4
    assert any(len(set(p)) < len(p) for t in model.trees for p in _paths(t))
    leaves = [(t, int(t.left[0]), int(t.right[0])) for t in model.trees
              if t.feature[0] >= 0]
    assert any(
        sum(1 for _ in _paths(t, lo)) > 1 and sum(1 for _ in _paths(t, hi)) > 1
        and len(np.unique(X[:, t.feature[0]] < t.threshold[0])) == 2
        for t, lo, hi in leaves)


def test_fast_route_still_equals_enumeration():
    model, X = _deep_model()
    batch = shap_values(model, X[:12])
    for row, x in zip(batch, X[:12]):
        assert np.allclose(row, shap_values_exact(model, x), atol=1e-12)


def test_explain_is_its_row_of_explain_rows(protocol_model):
    model, X = protocol_model
    names = [f"f{j}" for j in range(model.n_features)]
    rows = explain_rows(model, X[:9], names)
    for x, row in zip(X[:9], rows):
        assert explain_rows(model, x[None, :], names) == [row]


def test_shap_of_no_rows(protocol_model):
    model, X = protocol_model
    assert shap_values(model, X[:0]).shape == (0, model.n_features)


# --- diversity -----------------------------------------------------------------------

def _values(profile) -> np.ndarray:
    return np.array([profile.shannon, profile.gini_simpson, profile.berger_parker,
                     *(profile.beta_to_reference[m] for m in BETA_METRICS)])


def _pairwise(sample, ref) -> np.ndarray:
    """The single-vector functions, beta summed over reference rows in order."""
    beta = {m: 0.0 for m in BETA_METRICS}
    for row in ref:
        for m, value in beta_metrics(sample, row).items():
            beta[m] += value
    return np.array([shannon_index(sample), gini_simpson_index(sample),
                     berger_parker_index(sample),
                     *(beta[m] / len(ref) for m in BETA_METRICS)])


def _communities(seed, n_rows, n_taxa, zero_share):
    rng = np.random.default_rng(seed)
    rows = rng.gamma(0.5, 3.0, (n_rows, n_taxa))
    rows[rng.random(rows.shape) < zero_share] = 0.0
    rows[:, 0] = 0.0  # absent from every community: x + y == 0 for Canberra
    rows[rows.sum(axis=1) == 0, 1] = 1.0
    return rows


@pytest.mark.parametrize("block_bytes", [diversity.BLOCK_BYTES, 1, 3 * 37 * 64 * 8])
def test_batched_diversity_matches_single_vectors(block_bytes, monkeypatch):
    """Blocks of one visit, of three, and the default (13 of the 23
    visits); rows with zero taxa take the masked Shannon and Canberra
    routes."""
    monkeypatch.setattr(diversity, "BLOCK_BYTES", block_bytes)
    samples = _communities(1, 23, 64, 0.2)
    samples[3] = 1.0 + np.arange(64)  # no zero taxon
    ref = _communities(2, 37, 64, 0.3)
    batch = diversity_profiles(samples, ref)
    assert len(batch) == len(samples)
    for sample, profile in zip(samples, batch):
        assert _values(profile).tobytes() == _pairwise(sample, ref).tobytes()
        assert _values(profile).tobytes() == \
            _values(diversity_profiles(sample[None, :], ref)[0]).tobytes()


def test_batched_diversity_names_the_degenerate_row():
    samples = _communities(3, 4, 8, 0.2)
    samples[2] = 0.0
    with pytest.raises(DegenerateCommunityError,
                       match="^visit C: abundance vector has no positive entries$"):
        diversity_profiles(samples, _communities(4, 5, 8, 0.2),
                           names=["visit A", "visit B", "visit C", "visit D"])
    samples[1, 3] = np.nan
    with pytest.raises(ValueError, match="^visit B: abundances must be finite$"):
        diversity_profiles(samples, _communities(4, 5, 8, 0.2),
                           names=["visit A", "visit B", "visit C", "visit D"])


# --- the computational agent ---------------------------------------------------------

def test_run_computational_is_its_row_of_the_batch(deployment):
    test = deployment["test"]
    visits = test.samples[:25]
    models = (deployment["deployed"], deployment["reference"])
    batch = run_computational_many(test.subset([s.sample_id for s in visits]), *models)
    assert [out.sample_id for out in batch] == [s.sample_id for s in visits]
    for visit, out in zip(visits, batch):
        alone, = run_computational_many(
            SampleSet(test.clinical_names, test.taxon_names, (visit,)), *models)
        assert alone == out
        assert np.array([alone.probability, *alone.attribution.contributions,
                         *_values(alone.diversity)]).tobytes() == \
            np.array([out.probability, *out.attribution.contributions,
                      *_values(out.diversity)]).tobytes()
    assert run_computational_many(test.subset([]), *models) == []


def test_run_computational_many_names_a_degenerate_visit(deployment):
    test = deployment["test"]
    visits = list(test.samples[:5])
    visits[3] = visits[3]._replace(taxa=(0.0,) * len(visits[3].taxa))
    with pytest.raises(DegenerateCommunityError,
                       match=f"^sample {visits[3].sample_id}: "):
        run_computational_many(SampleSet(test.clinical_names, test.taxon_names, tuple(visits)),
                               deployment["deployed"], deployment["reference"])
