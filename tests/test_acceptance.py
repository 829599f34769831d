"""Release gate: nine behavioral criteria at stated tolerances and time limits.

Each criterion prints one PASS or FAIL line (visible with -s or in captured
output), so a full run doubles as a checklist.
"""

import functools
import json
import math
import re
import time

import numpy as np
import pytest

from adam.agents.computational import run_computational_many
from adam.agents.llm import ThresholdMockLLM, TitleEchoMock, estimate_tokens, parse_verdict
from adam.agents.pipeline import run_pipeline
from adam.agents.steps import CLASSIFICATION_TITLES, SUMMARIZATION_TITLES
from adam.attribution import shap_values, shap_values_exact
from adam.chunker import reconstruct, segment_count, segment_start, segment_text
from adam.cli import main
from adam.comparison import read_trials_csv
from adam.config import RESOLVED_CONFIG_NAME, RunConfig
from adam.dataset import SampleSet
from adam.diversity import ALPHA_METRICS, BETA_METRICS, alpha_metrics, beta_metrics
from adam.ensemble.gbdt import GBDTParams, fit_gbdt, model_to_dict
from adam.ensemble.metrics import accuracy
from adam.stats import _approx_mwu_p, _u_arrangement_counts, cohens_d, \
    levene_test, mann_whitney_u, variance_f_test
from adam.vectorstore import (
    VectorRecord,
    load_collections,
    save_collections,
    search_many,
)
from search_oracle import collection


def criterion(number, label, limit=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if limit is not None:
                    assert elapsed < limit, (
                        f"criterion {number} took {elapsed:.1f}s, "
                        f"limit {limit}s")
            except BaseException:
                print(f"FAIL  criterion {number}: {label}")
                raise
            print(f"PASS  criterion {number}: {label} ({elapsed:.2f}s)")
        return run
    return wrap


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset, fitted model bundle, and one classified cohort."""
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "0"]) == 0
    resolved = json.loads((data / RESOLVED_CONFIG_NAME).read_text())
    train_dir = root / "train"
    assert main(["train", "--dataset", resolved["dataset"],
                 "--schema", resolved["schema"],
                 "--out", str(train_dir), "--seed", "0"]) == 0
    classify_dir = root / "classify"
    assert main(["classify", "--dataset", resolved["dataset"],
                 "--schema", resolved["schema"],
                 "--model", str(train_dir / "model.json"),
                 "--out", str(classify_dir), "--seed", "0"]) == 0
    return {"root": root, "dataset": resolved["dataset"],
            "schema": resolved["schema"], "classify": classify_dir}


# -----------------------------------------------------------------------------

@criterion(1, "chunker exactness and reconstruction sweep", limit=5.0)
def test_criterion_1_chunker():
    assert segment_count(5800, 2000, 400) == 4
    assert [segment_start(i, 2000, 400) for i in range(1, 5)] == \
        [1, 1601, 3201, 4801]

    rng = np.random.default_rng(1)

    def sweep(length, seg, ov):
        text = rng.integers(97, 123, size=length,
                            dtype=np.uint8).tobytes().decode()
        chunks = segment_text(text, seg, ov)
        assert len(chunks) == segment_count(length, seg, ov)
        step = seg - ov
        for i, chunk in enumerate(chunks, start=1):
            assert chunk.segment_index == i
            assert chunk.start == 1 + (i - 1) * step
            assert chunk.text == text[chunk.start - 1:chunk.start - 1 + seg]
            assert len(chunk.text) >= 1
        last = chunks[-1]
        assert last.start - 1 + len(last.text) == length  # full coverage
        assert reconstruct(chunks, ov) == text  # lossless

    for length in rng.integers(1, 100_001, size=150):
        sweep(int(length), 2000, 400)
    for _ in range(100):
        seg = int(rng.integers(2, 5001))
        ov = int(rng.integers(0, seg))
        sweep(int(rng.integers(1, 100_001)), seg, ov)

    five = segment_text("x" * 5800, 2000, 400)
    assert [c.start for c in five] == [1, 1601, 3201, 4801]


@criterion(2, "exact attribution matches brute-force Shapley", limit=60.0)
def test_criterion_2_attribution():
    rng = np.random.default_rng(2)
    for trial in range(200):
        d = int(rng.integers(2, 13))
        n = int(rng.integers(30, 61))
        X = rng.standard_normal((n, d))
        y = (X[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        params = GBDTParams(n_trees=int(rng.integers(1, 6)),
                            max_depth=int(rng.integers(1, 4)),
                            learning_rate=0.3)
        model = fit_gbdt(X, y, params, seed=trial)
        X_test = rng.standard_normal((3, d))
        fast = shap_values(model, X_test)
        for row in range(3):
            exact = shap_values_exact(model, X_test[row])
            assert np.max(np.abs(fast[row] - exact)) < 1e-9
        recon = model.expected_margin + fast.sum(axis=1)
        assert np.max(np.abs(recon - model.predict_margin(X_test))) < 1e-9


@criterion(3, "diversity closed forms and beta-metric properties", limit=5.0)
def test_criterion_3_diversity():
    for k in (1, 2, 3, 4, 5, 8, 16, 64, 333):
        values = alpha_metrics(np.full(k, 1.0 / k))
        assert abs(values["shannon"] - math.log(k)) < 1e-12
        assert abs(values["gini_simpson"] - (1.0 - 1.0 / k)) < 1e-12
        assert abs(values["berger_parker"] - 1.0 / k) < 1e-12

    degenerate = np.zeros(12)
    degenerate[4] = 7.5
    values = alpha_metrics(degenerate)
    assert (values["shannon"], values["gini_simpson"],
            values["berger_parker"]) == (0.0, 0.0, 1.0)
    assert tuple(values) == tuple(ALPHA_METRICS)

    rng = np.random.default_rng(3)
    A = rng.random((10_000, 16)) * (rng.random((10_000, 16)) > 0.3)
    B = rng.random((10_000, 16)) * (rng.random((10_000, 16)) > 0.3)
    A[A.sum(axis=1) == 0, 0] = 0.5
    B[B.sum(axis=1) == 0, 0] = 0.5
    for a, b in zip(A, B):
        forward = beta_metrics(a, b)
        backward = beta_metrics(b, a)
        self_distance = beta_metrics(a, a)
        assert tuple(forward) == tuple(BETA_METRICS)
        for name in BETA_METRICS:
            assert forward[name] == backward[name]  # symmetry
            assert forward[name] >= 0.0
            if name in ("bray_curtis", "jaccard"):
                assert forward[name] <= 1.0
            else:
                assert forward[name] <= 16.0
            assert self_distance[name] == 0.0


@criterion(4, "retrieval identical to the linear-scan oracle", limit=30.0)
def test_criterion_4_retrieval(tmp_path):
    rng = np.random.default_rng(4)
    dim = 32

    def build(name, count, offset):
        records = []
        for i in range(count):
            vec = rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            records.append((VectorRecord(
                publication_id=f"PUB{offset + i:05d}",
                segment_index=1 + (i % 4),
                text=f"segment {i} of {name}",
                topic_keywords=("k",)), vec.astype(np.float32)))
        return collection(name, dim, records)

    collections = (build("alpha", 6000, 0), build("beta", 4000, 6000))

    scored = []  # (key tuple, float32-exact vector) per record
    for coll in collections:
        for rec, vector in zip(coll.records, coll.matrix):
            scored.append((rec.publication_id, rec.segment_index, coll.name,
                           vector.astype(np.float64)))

    def oracle(query, k, threshold):
        eligible = []
        for pub, seg, cname, vec in scored:
            sim = math.fsum(vec * query)
            if sim >= threshold:
                eligible.append((-sim, pub, seg, cname))
        eligible.sort()
        return [(pub, seg, cname) for _, pub, seg, cname in eligible[:k]]

    for q in range(100):
        query = rng.standard_normal(dim)
        query /= np.linalg.norm(query)
        k = int(rng.integers(1, 12))
        threshold = float(rng.uniform(-0.05, 0.25))
        hits = search_many(collections, [query], k=k, threshold=threshold)[0]
        got = [(h.publication_id, h.segment_index, h.collection)
               for h in hits]
        assert got == oracle(query, k, threshold)
        sims = [h.similarity for h in hits]
        assert sims == sorted(sims, reverse=True)
        assert all(s >= threshold for s in sims)

    query = rng.standard_normal(dim)
    query /= np.linalg.norm(query)
    top3 = search_many(collections, [query], k=3, threshold=0.0)[0]
    top10 = search_many(collections, [query], k=10, threshold=0.0)[0]
    assert top10[:3] == top3
    loose = search_many(collections, [query], k=50, threshold=0.0)[0]
    strict = search_many(collections, [query], k=50, threshold=0.15)[0]
    assert set(strict) <= set(loose)

    paths = save_collections({c.name: c for c in collections}, tmp_path)
    loaded = load_collections(tmp_path, expected_dim=dim)
    assert {name: c for name, c in loaded.items()} == \
        {c.name: c for c in collections}
    before = {p: p.read_bytes() for p in paths}
    save_collections(loaded, tmp_path)
    assert all(p.read_bytes() == blob for p, blob in before.items())


@criterion(5, "statistics exactness, agreement, and calibration", limit=120.0)
def test_criterion_5_statistics(monkeypatch):
    u_stat, p_value = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert u_stat == 0.0 and p_value == 0.1

    # exact vs Edgeworth-corrected normal route over the whole no-tie grid
    # the exact route serves (one side <= 8; the larger side capped at 20,
    # past which the approximation only improves)
    import adam.stats as stats_module
    monkeypatch.setattr(stats_module, "_u_arrangement_counts",
                        functools.lru_cache(None)(_u_arrangement_counts))
    worst = 0.0
    for m in range(1, 9):
        for n in range(m, 21):
            for u in range(m * n + 1):
                exact = stats_module._exact_mwu_p(m, n, float(u))
                approx = _approx_mwu_p(m, n, float(u), 0.0)
                worst = max(worst, abs(exact - approx))
    assert worst <= 0.01, f"worst exact-vs-approx gap {worst:.4f}"

    rng = np.random.default_rng(5)
    levene_rejections = 0
    f_rejections = 0
    simulations = 1000
    for _ in range(simulations):
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        levene_rejections += levene_test(a, b)[1] < 0.05
        f_rejections += variance_f_test(a, b)[1] < 0.05
    assert 0.03 <= levene_rejections / simulations <= 0.07
    assert 0.03 <= f_rejections / simulations <= 0.07

    assert cohens_d([2.0, 4.0], [0.0, 2.0]) == pytest.approx(
        math.sqrt(2.0), rel=1e-15)
    assert cohens_d([2.0, 4.0], [1.0, 3.0]) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-15)
    assert cohens_d([5.0, 5.0], [3.0, 4.0]) == 3.0


@criterion(6, "ensemble training behavior on separable data", limit=60.0)
def test_criterion_6_gbdt():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((400, 8))
    y = (X[:, 2] > 0.1).astype(float)
    groups = np.repeat(np.arange(40), 10)
    shuffled = rng.permutation(40)
    train_mask = np.isin(groups, shuffled[:30])

    model = fit_gbdt(X[train_mask], y[train_mask], seed=0)
    losses = model.loss_history
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(losses, losses[1:]))
    assert accuracy(y[train_mask], model.predict(X[train_mask])) >= 0.99
    assert accuracy(y[~train_mask], model.predict(X[~train_mask])) >= 0.95

    refit = fit_gbdt(X[train_mask], y[train_mask], seed=0)
    assert model_to_dict(refit) == model_to_dict(model)


@criterion(7, "mock-backend determinism and agent-ensemble equivalence",
           limit=120.0)
def test_criterion_7_end_to_end(workspace):
    args = ["evaluate", "--dataset", workspace["dataset"],
            "--schema", workspace["schema"], "--seeds", "3",
            "--models", "gbdt,adam"]
    first = workspace["root"] / "e2e-a"
    second = workspace["root"] / "e2e-b"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert (first / "trials.csv").read_bytes() == \
        (second / "trials.csv").read_bytes()

    adam_rows = read_trials_csv(first / "trials-adam.csv")
    gbdt_rows = read_trials_csv(first / "trials-baseline-gbdt.csv")
    assert len(adam_rows) == len(gbdt_rows) == 3
    for adam_row, gbdt_row in zip(adam_rows, gbdt_rows):
        assert adam_row["seed"] == gbdt_row["seed"]
        assert adam_row["f1"] == gbdt_row["f1"]
        assert adam_row["accuracy"] == gbdt_row["accuracy"]
        assert adam_row["auc"] == gbdt_row["auc"]


@criterion(8, "protocol fidelity: seeds, cohort, budgets, title programs")
def test_criterion_8_protocol(workspace, deployment):
    out = workspace["root"] / "protocol"
    assert main(["evaluate", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"], "--seeds", "10",
                 "--models", "gbdt,rf,lr", "--out", str(out)]) == 0
    table = (out / "metrics.txt").read_text().splitlines()
    assert table[0] == "Model performance averaged across 10 random seeds"
    rows = [line for line in table if line.startswith("baseline-")]
    assert [row.split()[0] for row in rows] == \
        ["baseline-gbdt", "baseline-rf", "baseline-lr"]
    cell = r"\d\.\d{4} \+- \d\.\d{4}"
    for row in rows:
        assert len(re.findall(cell, row)) == 3
    assert len(read_trials_csv(out / "trials.csv")) == 30

    dossier = json.loads(
        (workspace["classify"] / "dossier.json").read_text())
    entries = dossier["samples"]
    assert len(entries) == 30
    assert sum(e["label"] == 1 for e in entries) == 15
    assert sum(e["label"] == 0 for e in entries) == 15
    for entry in entries:
        assert entry["prompt_tokens"]["summarization"] <= 100_000
        assert entry["prompt_tokens"]["classification"] <= 50_000

    # dispatched prompts carry both full title programs verbatim in order
    test_set = deployment["test"]
    sample = test_set.samples[0]
    output, = run_computational_many(
        SampleSet(test_set.clinical_names, test_set.taxon_names, (sample,)),
        deployment["deployed"], deployment["reference"])
    _, transcripts = run_pipeline(output, (), None, TitleEchoMock(),
                                  ThresholdMockLLM(), RunConfig())
    for transcript, titles, budget in (
            (transcripts[0], SUMMARIZATION_TITLES, 100_000),
            (transcripts[1], CLASSIFICATION_TITLES, 50_000)):
        positions = [transcript.prompt.index(f"## Step {i}: {title}")
                     for i, title in enumerate(titles, start=1)]
        assert positions == sorted(positions)
        assert estimate_tokens(transcript.prompt) <= budget
        assert transcript.prompt_tokens == estimate_tokens(transcript.prompt)


@criterion(9, "report fidelity: headline, sections, numeric formats")
def test_criterion_9_reports(workspace):
    dossier = json.loads(
        (workspace["classify"] / "dossier.json").read_text())
    section_pattern = [f"{i}. {title}: " for i, title in enumerate(
        ("Clinical Indicators", "Medications", "Gut Microbiome Profile",
         "Diversity Metrics", "SHAP Feature Importance"), start=1)]
    headline = re.compile(
        r"^Prediction: (Yes|No) - Alzheimer's disease probability "
        r"assessed at \d+\.\d{2}%$")
    shap_format = re.compile(r"\(SHAP: [+-]\d+\.\d{4}\)")
    for entry in dossier["samples"]:
        text = (workspace["classify"] / entry["report_path"]).read_text()
        lines = text.splitlines()
        match = headline.match(lines[0])
        assert match is not None, lines[0]
        assert match.group(1) == entry["verdict"]
        assert parse_verdict(text) == entry["verdict"]
        body = lines[:lines.index("Narrative summary:")]
        positions = []
        for prefix in section_pattern:
            hits = [i for i, line in enumerate(body)
                    if line.startswith(prefix)]
            assert len(hits) == 1, prefix
            positions.append(hits[0])
        assert positions == sorted(positions)
        assert shap_format.search(text) is not None
