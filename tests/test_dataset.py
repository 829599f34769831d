"""CSV ingestion, grouped splitting, cohorts, and imputation."""

import csv
import math
import random

import numpy as np
import pytest

from adam import dataset
from adam.dataset import (
    Sample,
    SampleSet,
    Schema,
    draw_eval_cohort,
    feature_medians,
    impute,
    is_file_name,
    load_schema,
    parse_samples,
    split_grouped_stratified,
)
from adam.errors import AlignmentError, CohortError, EmptyInputError, SchemaError

SCHEMA = {
    "columns": {
        "sid": "sample_id",
        "pid": "study_id",
        "visit": "visit",
        "dx": "label",
        "age": "clinical",
        "TaxA": "taxon",
        "TaxB": "taxon",
        "note": "ignore",
    }
}


def _write(tmp_path, rows, header="sid,pid,visit,dx,age,TaxA,TaxB,note"):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_parse_clean_rows(tmp_path):
    path = _write(tmp_path, [
        "S1,P1,1,yes,70,1.5,2.5,hello",
        "S2,P1,2,no,80,0.5,3.5,world",
        "S3,P2,1,1,75,2.0,0.0,",
    ])
    ss, rejected = parse_samples(path, SCHEMA)
    assert rejected == ()
    assert len(ss) == 3
    assert ss.clinical_names == ("age",)
    assert ss.taxon_names == ("TaxA", "TaxB")
    assert ss.samples[0].label == 1 and ss.samples[1].label == 0
    assert ss.samples[0].visit_index == 1 and ss.samples[1].visit_index == 2
    assert ss.samples[2].taxa == (2.0, 0.0)
    matrix = ss.feature_matrix()
    assert matrix.shape == (3, 3)
    assert ss.feature_names == ("age", "TaxA", "TaxB")


def test_parse_rejects_bad_rows_individually(tmp_path):
    path = _write(tmp_path, [
        "S1,P1,1,yes,70,1.5,2.5,ok",
        "S2,P1,2,maybe,80,0.5,3.5,bad label",
        "S3,P2,1,no,notanumber,1.0,1.0,bad clinical",
        "S4,P2,2,no,75,-3.0,1.0,negative abundance",
        "S1,P3,1,no,75,1.0,1.0,duplicate id",
        ",P3,1,no,75,1.0,1.0,empty id",
        "S5,P3,1,no,75,1.0,1.0,ok",
        "S6,P3,2,no,75,1.0",
    ])
    sample_set, rejected = parse_samples(path, SCHEMA)
    assert len(sample_set) == 2
    reasons = {line: reason for line, reason in rejected}
    assert set(reasons) == {3, 4, 5, 6, 7, 9}
    assert "label" in reasons[3]
    assert "clinical" in reasons[4]
    assert reasons[5] == "negative abundance"
    assert "duplicate" in reasons[6]
    assert "empty sample_id" in reasons[7]
    assert "fields" in reasons[9]


def test_rejected_rows_carry_their_file_line_after_a_multi_line_field(tmp_path):
    path = _write(tmp_path, [
        'S1,P1,1,yes,70,1.5,2.5,"a note over',
        'two lines"',
        "S2,P1,2,maybe,80,0.5,3.5,bad label",
    ])
    sample_set, rejected = parse_samples(path, SCHEMA)
    assert [s.sample_id for s in sample_set.samples] == ["S1"]
    assert rejected == ((4, "unrecognized label value 'maybe'"),)


@pytest.mark.parametrize("token", ["inf", "-inf", "+inf", "Infinity", "-INFINITY",
                                   "1e999", "-nan"])
def test_parse_rejects_non_finite_values(tmp_path, token):
    path = _write(tmp_path, [
        "S1,P1,1,yes,70,1.5,2.5,ok",
        f"S2,P1,2,no,{token},0.5,3.5,clinical",
        f"S3,P2,1,no,75,{token},1.0,abundance",
    ])
    sample_set, rejected = parse_samples(path, SCHEMA)
    assert [s.sample_id for s in sample_set.samples] == ["S1"]
    reasons = dict(rejected)
    assert reasons[3].startswith("bad clinical value: non-finite value")
    assert reasons[4].startswith("bad abundance value: non-finite value")


def test_parse_rejects_digit_group_underscores(tmp_path):
    path = _write(tmp_path, [
        "S1,P1,1,yes,70,1.5,2.5,ok",
        "S2,P1,2,no,1_5,0.5,3.5,clinical",
        "S3,P2,1,no,75,1_0,1.0,abundance",
        "S4,P2,1_0,no,75,1.0,1.0,visit",
    ])
    sample_set, rejected = parse_samples(path, SCHEMA)
    assert [s.sample_id for s in sample_set.samples] == ["S1"]
    reasons = dict(rejected)
    assert reasons[3] == "bad clinical value: underscore in number '1_5'"
    assert reasons[4] == "bad abundance value: underscore in number '1_0'"
    assert reasons[5].startswith("visit must be a positive integer")


@pytest.mark.parametrize("sample_id", ["..", ".", "../escaped", "a/b", "/abs",
                                       "a\\b", "..\\up"])
def test_parse_rejects_path_like_sample_ids(tmp_path, sample_id):
    path = _write(tmp_path, [
        "S1,P1,1,yes,70,1.5,2.5,ok",
        f"{sample_id},P1,2,no,80,0.5,3.5,path",
        "...,P2,1,no,75,1.0,1.0,dots are a plain name",
    ])
    sample_set, rejected = parse_samples(path, SCHEMA)
    assert [s.sample_id for s in sample_set.samples] == ["S1", "..."]
    assert rejected == (
        (3, f"sample_id {sample_id!r} is not a plain file name"),)


def test_is_file_name():
    for name in ("S1", "...", "a.b", "P 1-visit_2", "ß"):
        assert is_file_name(name)
    for name in ("", ".", "..", "a/b", "a\\b", "a\0b", "/", "a\ud800"):
        assert not is_file_name(name)


def test_parse_missing_values(tmp_path):
    path = _write(tmp_path, [
        "S1,P1,1,yes,,1.5,na,x",
        "S2,P1,2,no,NA,nan,2.0,x",
    ])
    ss, _ = parse_samples(path, SCHEMA)
    assert math.isnan(ss.samples[0].clinical[0])
    assert math.isnan(ss.samples[1].clinical[0])
    # missing abundances read as zero, not NaN
    assert ss.samples[0].taxa == (1.5, 0.0)
    assert ss.samples[1].taxa == (0.0, 2.0)


def test_parse_without_visit_column_counts_visits(tmp_path):
    schema = {"columns": {"sid": "sample_id", "pid": "study_id",
                          "dx": "label", "age": "clinical"}}
    path = _write(tmp_path, [
        "S1,P1,1,yes,70,x",
        "S2,P1,1,yes,71,x",
        "S3,P2,1,no,72,x",
    ], header="sid,pid,ignored,dx,age,extra")
    with pytest.raises(SchemaError):
        parse_samples(path, schema)
    schema["columns"]["ignored"] = "ignore"
    schema["columns"]["extra"] = "ignore"
    ss, _ = parse_samples(path, schema)
    assert [s.visit_index for s in ss.samples] == [1, 2, 1]


def test_parse_all_rows_bad_raises(tmp_path):
    path = _write(tmp_path, ["S1,P1,0,yes,70,1.0,1.0,x"])
    with pytest.raises(EmptyInputError):
        parse_samples(path, SCHEMA)


# Cells that the one-pass route must read as ``_parse_float`` does: by
# rejecting them with the same message, or by taking the cell by cell route.
ONE_PASS_TOKENS = ["1e999", "1e308", "1_0", " 1.5", "+.5", "-0", ".", "e", "\u0661\u0662",
                   "nan", "NA", "", "1,5", "-0.5", "7"]


def _cell_by_cell(cells, missing_as):
    return tuple(dataset._parse_float(cell, missing_as) for cell in cells)


@pytest.mark.parametrize("column", ["age", "TaxA"])
@pytest.mark.parametrize("token", ONE_PASS_TOKENS)
def test_one_pass_ingest_equals_the_cell_by_cell_route(tmp_path, monkeypatch, token, column):
    path = tmp_path / "data.csv"
    header = ["sid", "pid", "visit", "dx", "age", "TaxA", "TaxB", "note"]
    plain = {"age": "70", "TaxA": "1.5", "TaxB": "1e308", "note": "x"}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate([plain, {**plain, column: token}, plain]):
            writer.writerow({"sid": f"S{i}", "pid": "P1", "visit": i + 1, "dx": "1", **row}[c]
                            for c in header)
    one_pass = parse_samples(path, SCHEMA)
    monkeypatch.setattr(dataset, "_parse_floats", _cell_by_cell)
    # repr tells -0.0 from 0.0 and reads NaN as nan, so the two must agree bit for bit
    assert repr(one_pass) == repr(parse_samples(path, SCHEMA))


def test_plain_rows_take_one_pass(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(dataset, "_parse_float",
                        lambda *args: calls.append(args) or math.nan)
    path = _write(tmp_path, ["S1,P1,1,yes,70,1.5,2.5,", "S2,P1,2,no,-8e1,+.5,0,"])
    ss, _ = parse_samples(path, SCHEMA)
    assert calls == []
    assert [s.clinical + s.taxa for s in ss.samples] == [(70.0, 1.5, 2.5), (-80.0, 0.5, 0.0)]


def test_schema_validation():
    with pytest.raises(SchemaError):
        load_schema({"columns": {"a": "sample_id", "b": "study_id"}})
    with pytest.raises(SchemaError):
        load_schema({"columns": {"a": "sample_id", "b": "sample_id",
                                 "c": "study_id", "d": "label"}})
    with pytest.raises(SchemaError):
        load_schema({"columns": {"a": "nonsense", "b": "study_id",
                                 "c": "label", "d": "sample_id"}})
    schema = load_schema({"columns": {"a": "sample_id", "b": "study_id",
                                      "c": "label"},
                          "default_role": "taxon"})
    assert schema.role_of("anything") == "taxon"
    strict = Schema(columns={"a": "sample_id"})
    with pytest.raises(SchemaError):
        strict.role_of("unknown")


def test_split_is_group_disjoint_and_stratified(sample_set):
    for seed in range(8):
        train, test = split_grouped_stratified(sample_set, 0.75, seed=seed)
        train_studies = set(train.study_ids())
        test_studies = set(test.study_ids())
        assert not train_studies & test_studies
        assert {s.study_id for s in train.samples} == train_studies
        assert {s.study_id for s in test.samples} == test_studies
        assert len(train) + len(test) == len(sample_set)
        # at least one study of each label stratum on both sides
        for part in (train, test):
            labels = part.labels()
            assert labels.min() == 0 and labels.max() == 1
    # determinism and seed sensitivity
    again, _ = split_grouped_stratified(sample_set, 0.75, seed=3)
    assert again.study_ids() == \
        split_grouped_stratified(sample_set, 0.75, seed=3)[0].study_ids()
    other, _ = split_grouped_stratified(sample_set, 0.75, seed=4)
    assert other.study_ids() != again.study_ids()


def test_split_fraction_bounds(sample_set):
    with pytest.raises(ValueError):
        split_grouped_stratified(sample_set, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_grouped_stratified(sample_set, 1.0, seed=0)


def test_draw_eval_cohort_counts_and_determinism(sample_set):
    cohort = draw_eval_cohort(sample_set, 15, 15, seed=0)
    labels = cohort.labels()
    assert len(cohort) == 30
    assert int(labels.sum()) == 15
    ids = [s.sample_id for s in cohort.samples]
    assert len(set(ids)) == 30
    again = draw_eval_cohort(sample_set, 15, 15, seed=0)
    assert [s.sample_id for s in again.samples] == ids
    different = draw_eval_cohort(sample_set, 15, 15, seed=1)
    assert [s.sample_id for s in different.samples] != ids


def test_draw_eval_cohort_insufficient(sample_set):
    n_pos = int(sample_set.labels().sum())
    with pytest.raises(CohortError):
        draw_eval_cohort(sample_set, n_pos + 1, 1, seed=0)


def test_prior_visits(sample_set):
    with_history = [s for s in sample_set.samples if s.visit_index >= 3]
    assert with_history
    sample = with_history[0]
    priors = sample_set.prior_visits(sample)
    assert [p.visit_index for p in priors] == \
        sorted(p.visit_index for p in priors)
    assert all(p.visit_index < sample.visit_index for p in priors)
    assert all(p.study_id == sample.study_id for p in priors)


def _visit(sample_id, study_id, visit_index, clinical=(1.0,), taxa=(0.5, 0.5)):
    return Sample(sample_id=sample_id, study_id=study_id, visit_index=visit_index,
                  label=0, clinical=clinical, taxa=taxa)


def test_prior_visits_keeps_one_sample_per_visit_index():
    samples = (_visit("s9", "A", 1), _visit("s3", "A", 2), _visit("s1", "A", 2),
               _visit("s2", "A", 1), _visit("s7", "B", 1), _visit("s5", "A", 3),
               _visit("s4", "A", 4))
    visits = SampleSet(("age",), ("TaxA", "TaxB"), samples)
    current = samples[-2]
    assert [p.sample_id for p in visits.prior_visits(current)] == ["s2", "s1"]
    assert visits.prior_visits(samples[0]) == ()


def test_model_inputs_selects_by_name_and_imputes():
    visits = SampleSet(("age", "bmi"), ("TaxA",), (
        _visit("s1", "A", 1, clinical=(70.0, float("nan")), taxa=(0.25,)),
        _visit("s2", "B", 1, clinical=(float("nan"), 22.0), taxa=(0.75,))))
    medians = {"TaxA": 9.0, "age": 65.0, "bmi": 24.0}
    X = visits.model_inputs(("TaxA", "bmi", "age"), medians)
    assert X.tolist() == [[0.25, 24.0, 70.0], [0.75, 22.0, 65.0]]
    assert visits.model_inputs((), medians).shape == (2, 0)
    assert visits.subset([]).model_inputs(("age",), medians).shape == (0, 1)
    with pytest.raises(AlignmentError, match="'height' is not a column"):
        visits.model_inputs(("age", "height"), medians)
    short = SampleSet(("age", "bmi"), ("TaxA",), (_visit("s3", "A", 1, taxa=(0.5,)),))
    with pytest.raises(AlignmentError, match="sample s3 does not align"):
        short.model_inputs(("age",), medians)


def test_feature_medians_and_impute():
    matrix = np.array([[1.0, np.nan, 5.0],
                       [3.0, np.nan, 7.0],
                       [np.nan, np.nan, 9.0]])
    medians = feature_medians(matrix)
    assert medians[0] == 2.0
    assert medians[1] == 0.0  # all-NaN column falls back to zero
    assert medians[2] == 7.0
    filled = impute(matrix, medians)
    assert not np.isnan(filled).any()
    assert filled[2, 0] == 2.0 and filled[0, 1] == 0.0
    assert filled[0, 0] == 1.0  # observed cells untouched
    with pytest.raises(EmptyInputError):
        feature_medians(np.empty((0, 3)))
    with pytest.raises(ValueError):
        impute(matrix, medians[:2])


def test_impute_random_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        matrix = rng.normal(size=(30, 6))
        mask = rng.random(matrix.shape) < 0.2
        holed = matrix.copy()
        holed[mask] = np.nan
        medians = feature_medians(holed)
        for j in range(6):
            observed = holed[:, j][~np.isnan(holed[:, j])]
            if observed.size:
                assert medians[j] == np.median(observed)
        filled = impute(holed, medians)
        assert not np.isnan(filled).any()
        assert np.array_equal(filled[~mask], matrix[~mask])


def test_subset_and_restrict(sample_set):
    first = sample_set.samples[0]
    sub = sample_set.subset([first.sample_id])
    assert len(sub) == 1 and sub.samples[0] == first
    with pytest.raises(KeyError):
        sample_set.subset(["missing-id"])
    study = sample_set.restrict_to_studies([first.study_id])
    assert {s.study_id for s in study.samples} == {first.study_id}
