"""Shape, signal, and determinism of the synthetic dataset generator."""

import filecmp
from collections import Counter

import numpy as np

from adam.dataset import parse_samples
from adam.synthetic import (
    CLINICAL,
    N_PARTICIPANTS,
    N_POSITIVE_PARTICIPANTS,
    N_POSITIVE_SAMPLES,
    N_SAMPLES,
    PROTECTIVE_TAXON,
    RISK_TAXON,
    TAXA,
    generate_rows,
    write_dataset,
)


def test_row_and_participant_counts():
    header, rows, _ = generate_rows(seed=0)
    assert len(rows) == N_SAMPLES == 335
    label_i = header.index("label")
    study_i = header.index("study_id")
    labels = [int(r[label_i]) for r in rows]
    assert sum(labels) == N_POSITIVE_SAMPLES == 110
    by_study = {}
    for row, label in zip(rows, labels):
        by_study.setdefault(row[study_i], []).append(label)
    assert len(by_study) == N_PARTICIPANTS == 100
    # labels are constant within a participant
    assert all(len(set(v)) == 1 for v in by_study.values())
    assert sum(v[0] for v in by_study.values()) == N_POSITIVE_PARTICIPANTS == 33


def test_visit_distribution():
    header, rows, _ = generate_rows(seed=0)
    study_i = header.index("study_id")
    counts = Counter(r[study_i] for r in rows)
    per_participant = sorted(counts.values())
    assert min(per_participant) == 1
    assert max(per_participant) == 12
    assert float(np.median(per_participant)) == 3.0
    # visit numbers run 1..n within each participant
    visit_i = header.index("visit")
    seen = {}
    for r in rows:
        seen.setdefault(r[study_i], []).append(int(r[visit_i]))
    assert all(v == list(range(1, len(v) + 1)) for v in seen.values())


def test_columns_and_abundance_normalization():
    header, rows, _ = generate_rows(seed=0)
    assert header == ("sample_id", "study_id", "visit", "label") + CLINICAL + TAXA
    assert len(TAXA) == 64 and len(CLINICAL) == 9
    taxa_start = 4 + len(CLINICAL)
    for row in rows[:50]:
        total = sum(float(v) for v in row[taxa_start:])
        assert abs(total - 100.0) < 0.01


def test_write_dataset_deterministic(tmp_path):
    csv_a, schema_a = write_dataset(tmp_path / "a", seed=5)
    csv_b, schema_b = write_dataset(tmp_path / "b", seed=5)
    assert filecmp.cmp(csv_a, csv_b, shallow=False)
    assert filecmp.cmp(schema_a, schema_b, shallow=False)
    csv_c, _ = write_dataset(tmp_path / "c", seed=6)
    assert not filecmp.cmp(csv_a, csv_c, shallow=False)


def test_generated_file_parses(tmp_path):
    csv_path, schema_path = write_dataset(tmp_path, seed=0)
    ss, rejected = parse_samples(csv_path, schema_path)
    assert rejected == ()
    assert len(ss) == N_SAMPLES
    assert ss.taxon_names == tuple(sorted(TAXA))
    assert ss.clinical_names == tuple(sorted(CLINICAL))
    # the 1% missing clinical cells survive ingestion as NaN
    matrix = ss.feature_matrix()
    n_clin = len(CLINICAL)
    assert np.isnan(matrix[:, :n_clin]).sum() > 0
    assert not np.isnan(matrix[:, n_clin:]).any()


def test_class_signal(sample_set):
    labels = sample_set.labels().astype(bool)
    names = sample_set.feature_names
    matrix = sample_set.feature_matrix()
    risk = matrix[:, names.index(RISK_TAXON)]
    protective = matrix[:, names.index(PROTECTIVE_TAXON)]
    frailty = matrix[:, names.index("frailty_score")]
    assert risk[labels].mean() > 3 * risk[~labels].mean()
    assert protective[~labels].mean() > 3 * protective[labels].mean()
    assert np.nanmean(frailty[labels]) > np.nanmean(frailty[~labels])
