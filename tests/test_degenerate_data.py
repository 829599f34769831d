"""Degenerate but well-formed datasets through the commands that fit models.

Each shape is cut from ``synth --seed 1``: a valid CSV and schema that
leave too little to split, stratify or learn from. ``train``,
``evaluate`` (all four models) and, where ``train`` wrote a model,
``classify`` must each return 0, or return 1 with exactly one ``error:``
line; no exception may escape ``main``.
"""

import csv
import json

import pytest

from adam.cli import main
from adam.config import RESOLVED_CONFIG_NAME

KEYS = ("sample_id", "study_id", "label")


def _one_study_per_label(rows, roles):
    return [r for r in rows if r["study_id"] in ("ST001", "ST002")], roles


def _both_labels_in_two_studies(rows, roles):
    # ST001 and ST004 are label 0, ST002 and ST003 label 1
    merged = {"ST001": "SA", "ST002": "SA", "ST003": "SB", "ST004": "SB"}
    return [{**r, "study_id": merged[r["study_id"]]}
            for r in rows if r["study_id"] in merged], roles


def _one_label(rows, roles):
    return [r for r in rows if r["label"] == "0"], roles


def _four_rows(rows, roles):
    return ([r for r in rows if r["label"] == "0"][:2]
            + [r for r in rows if r["label"] == "1"][:2]), roles


def _no_feature_column(rows, roles):
    return ([{k: r[k] for k in KEYS} for r in rows],
            {k: v for k, v in roles.items() if k in KEYS})


SHAPES = {
    "one-study-per-label": _one_study_per_label,
    "both-labels-in-two-studies": _both_labels_in_two_studies,
    "one-label": _one_label,
    "four-rows": _four_rows,
    "no-feature-column": _no_feature_column,
}


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """(rows, column roles) of ``synth --seed 1``."""
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--seed", "1"]) == 0
    resolved = json.loads((out / RESOLVED_CONFIG_NAME).read_text())
    with open(resolved["dataset"], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(resolved["schema"], encoding="utf-8") as fh:
        roles = json.load(fh)["columns"]
    return rows, roles


def _write_shape(directory, rows, roles, cut):
    rows, roles = cut(rows, roles)
    dataset, schema = directory / "shape.csv", directory / "shape.schema.json"
    with open(dataset, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    schema.write_text(json.dumps({"columns": roles}), encoding="utf-8")
    return ["--dataset", str(dataset), "--schema", str(schema)]


def _run(args, capsys, names=""):
    """Exit code of ``main(args)``; a code of 1 must come with one error line,
    which holds names."""
    code = main(args)
    err = capsys.readouterr().err
    assert code in (0, 1), (args[0], code, err)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (args[0], err)
        assert names in err, (args[0], err)
    return code


@pytest.mark.parametrize("shape", SHAPES)
def test_degenerate_shape_gives_a_result_or_one_error_line(shape, synth, tmp_path, capsys):
    data = _write_shape(tmp_path, *synth, SHAPES[shape])
    trained = _run(["train", *data, "--out", str(tmp_path / "train"), "--seed", "0"],
                   capsys) == 0
    # with no taxon column, the agents' diversity fails on the file, not a row
    no_taxa = shape == "no-feature-column"
    names = f"error: {data[1]}: " if no_taxa else ""
    codes = [_run(["evaluate", *data, "--out", str(tmp_path / "eval"), "--seeds", "1",
                   "--models", "gbdt,rf,lr,adam"], capsys, names)]
    if trained:
        codes.append(_run(["classify", *data, "--out", str(tmp_path / "classify"),
                           "--model", str(tmp_path / "train" / "model.json"), "--seed", "0"],
                          capsys, names))
    if no_taxa:
        assert codes == [1, 1]


def test_baselines_without_feature_columns_write_a_row_each(synth, tmp_path, capsys):
    # with nothing to split on, each model fits single leaves; the forest
    # draws no feature from the empty set
    data = _write_shape(tmp_path, *synth, _no_feature_column)
    out = tmp_path / "eval"
    assert _run(["evaluate", *data, "--out", str(out), "--seeds", "1",
                 "--models", "gbdt,rf,lr"], capsys) == 0
    with open(out / "trials.csv", newline="", encoding="utf-8") as fh:
        models = [row["model"] for row in csv.DictReader(fh)]
    assert sorted(models) == ["baseline-gbdt", "baseline-lr", "baseline-rf"]


def _every_40th_row_without_taxa(rows, roles):
    taxa = [c for c, role in roles.items() if role == "taxon"]
    return [{**r, **dict.fromkeys(taxa, "0")} if i % 40 == 0 else r
            for i, r in enumerate(rows)], roles


def test_a_failing_adam_arm_keeps_the_baseline_rows(synth, tmp_path, capsys):
    """Zeroing the taxa of 9 of 335 rows leaves adam's diversity undefined on
    every seed; the baselines never read diversity, so with
    --tolerate-failures they keep the rows they write without adam."""
    data = _write_shape(tmp_path, *synth, _every_40th_row_without_taxa)

    def evaluate(name, models, *extra, names=""):
        out = tmp_path / name
        return _run(["evaluate", *data, "--out", str(out), "--seeds", "3",
                     "--models", models, *extra], capsys, names), out

    code, baselines = evaluate("baselines", "gbdt,rf,lr")
    assert code == 0
    runs = {jobs: evaluate(f"jobs-{jobs}", "gbdt,rf,lr,adam", "--tolerate-failures",
                           "--jobs", jobs) for jobs in ("1", "2")}
    assert [code for code, _ in runs.values()] == [0, 0]
    tolerant = runs["1"][1]
    with open(tolerant / "trials.csv", newline="", encoding="utf-8") as fh:
        models = [row["model"] for row in csv.DictReader(fh)]
    assert sorted(models) == ["baseline-gbdt"] * 3 + ["baseline-lr"] * 3 + ["baseline-rf"] * 3
    for name in ("trials.csv", "trials-baseline-gbdt.csv", "trials-baseline-rf.csv",
                 "trials-baseline-lr.csv"):
        assert (tolerant / name).read_bytes() == (baselines / name).read_bytes(), name
    assert (tolerant / "trials-adam.csv").read_text() == "seed,model,accuracy,auc,f1\n"
    empty = "abundance vector has no positive entries"
    assert (tolerant / "failures.txt").read_text().splitlines() == [
        f"seed 0: reference sample FB001: {empty}",
        f"seed 1: sample FB161: {empty}",
        f"seed 2: reference sample FB001: {empty}",
    ]
    for name in ("trials.csv", "trials-adam.csv", "trials-baseline-gbdt.csv",
                 "trials-baseline-rf.csv", "trials-baseline-lr.csv", "metrics.txt",
                 "failures.txt"):
        assert (runs["2"][1] / name).read_bytes() == (tolerant / name).read_bytes(), name

    code, _ = evaluate("strict", "gbdt,rf,lr,adam",
                       names=f"error: reference sample FB001: {empty}\n")
    assert code == 1
