"""Every reader of outside input rejects a malformed input with an AdamError.

One row per reader: the dataset CSV and its schema, the config file, the
corpus, the model bundle (with the model document inside it), an
``.advec`` store file, a dossier, a trials CSV, and the embedding and
chat replies. Each row covers a truncated input, each required key
dropped, one value of the wrong type per key, and bytes that are not
UTF-8 for the file readers. Through the API each case raises an
AdamError naming the file (or the reply); through ``main`` it exits 1
with exactly one ``error:`` line naming it and no traceback.

``test_every_reader_has_a_row`` walks ``src/adam`` and fails when a
function that checks a document's fields or reads outside text has no
row here.
"""

import ast
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import adam
from adam import cli
from adam.agents.llm import HttpChatBackend
from adam.chunker import read_corpus
from adam.cli import main, read_dossier
from adam.comparison import read_trials_csv
from adam.config import load_config_file, resolve_config
from adam.dataset import parse_samples
from adam.embedding import RemoteEmbedder
from adam.errors import AdamError
from adam.vectorstore import Collection, VectorRecord, load_collection, save_collection
from search_oracle import collection


@dataclass(frozen=True)
class Row:
    """One reader: its cases, its API call and its command line.

    :param cases: case id -> function of (tmp_path, fixtures) writing the
        malformed input and returning it (a file path, or a reply
        document for the HTTP rows).
    :param read: the API reader applied to (input, fixtures).
    :param argv: the command that reads the input, as a function of
        (input, tmp_path, fixtures).
    """

    name: str
    cases: dict
    read: Callable
    argv: Callable


# --- building malformed files -------------------------------------------------

def _write(path: Path, data) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return path


def _truncated(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _not_utf8(data: bytes) -> bytes:
    """data with a 0xff byte, which no UTF-8 text holds, put in its middle."""
    middle = len(data) // 2
    return data[:middle] + b"\xff" + data[middle:]


def _json_cases(name, valid, drop, wrong, locate=lambda doc: doc):
    """Cases of a JSON file reader.

    :param valid: function of the fixtures giving the valid document.
    :param drop: the required keys of the object locate(doc) picks.
    :param wrong: (key, value of the wrong type) pairs for that object.
    """
    def edited(change):
        def make(tmp_path, fx):
            doc = json.loads(json.dumps(valid(fx)))
            change(doc)
            return _write(tmp_path / name, json.dumps(doc))
        return make

    def raw(change):
        return lambda tmp_path, fx: _write(
            tmp_path / name, change(json.dumps(valid(fx)).encode("utf-8")))

    cases = {"truncated": raw(_truncated), "not-utf8": raw(_not_utf8)}
    for key in drop:
        cases[f"no-{key}"] = edited(lambda doc, k=key: locate(doc).pop(k))
    for key, value in wrong:
        cases[f"{key}-{json.dumps(value)}"] = edited(
            lambda doc, k=key, v=value: locate(doc).__setitem__(k, v))
    return cases


# --- dataset CSV and schema -----------------------------------------------------

CSV_ROWS = [["sid", "pid", "visit", "dx", "age", "Taxon A"],
            ["S1", "P1", "1", "yes", "70", "0.5"],
            ["S2", "P1", "2", "no", "71", "0.25"],
            ["S3", "P2", "1", "no", "72", "0.75"]]
SCHEMA = {"columns": {"sid": "sample_id", "pid": "study_id", "visit": "visit",
                      "dx": "label", "age": "clinical", "Taxon A": "taxon"}}


def _csv_text(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _good_schema(tmp_path) -> Path:
    return _write(tmp_path / "good" / "schema.json", json.dumps(SCHEMA))


def _good_csv(tmp_path) -> Path:
    return _write(tmp_path / "good" / "data.csv", _csv_text(CSV_ROWS))


def _csv_case(change):
    return lambda tmp_path, fx: _write(tmp_path / "data.csv", change(CSV_ROWS))


def _without(column):
    i = CSV_ROWS[0].index(column)
    return lambda rows: _csv_text([row[:i] + row[i + 1:] for row in rows])


def _every_value(column, value):
    """Every data row's cell of column set to value: no row is usable."""
    i = CSV_ROWS[0].index(column)
    return lambda rows: _csv_text(
        [rows[0]] + [row[:i] + [value] + row[i + 1:] for row in rows[1:]])


CSV_CASES = {
    "truncated": _csv_case(lambda rows: _csv_text(rows)[:6]),
    "not-utf8": lambda tmp_path, fx: _write(
        tmp_path / "data.csv", _not_utf8(_csv_text(CSV_ROWS).encode("utf-8"))),
    # the columns of the required roles; visit, clinical and taxon columns
    # are optional
    **{f"no-{column}": _csv_case(_without(column)) for column in ("sid", "pid", "dx")},
    **{f"{column}-{value!r}": _csv_case(_every_value(column, value))
       for column, value in (("sid", ""), ("pid", ""), ("visit", "first"),
                             ("dx", "maybe"), ("age", "old"), ("Taxon A", "-1"))},
}

SCHEMA_CASES = _json_cases(
    "schema.json", lambda fx: SCHEMA, drop=("columns",),
    wrong=(("columns", ["sid"]), ("default_role", 5)))
SCHEMA_CASES.update(_json_cases(
    "schema.json", lambda fx: SCHEMA, drop=(), locate=lambda doc: doc["columns"],
    wrong=(("age", 7), ("dx", "outcome"))))

# --- config -----------------------------------------------------------------------

CONFIG = {"seed": 3, "threshold": 0.5, "dataset": None, "embedding_model": "m",
          "tolerate_failures": False}
# Every config key is optional, so no case drops one; a value out of its
# range is checked where the file is read, so the error names the file and
# the key.
CONFIG_CASES = _json_cases(
    "config.json", lambda fx: CONFIG, drop=(),
    wrong=(("seed", "3"), ("threshold", "0.5"), ("dataset", 3),
           ("embedding_model", None), ("tolerate_failures", 1)))
OUT_OF_RANGE = {"jobs-0": ("jobs", 0), "threshold-2": ("threshold", 2),
                "seed--1": ("seed", -1), "seed_base--1": ("seed_base", -1)}
CONFIG_CASES.update({
    case: lambda tmp_path, fx, k=key, v=value: _write(
        tmp_path / "config.json", json.dumps({**CONFIG, k: v}))
    for case, (key, value) in OUT_OF_RANGE.items()})
# JSON that json.loads rejects with a ValueError or RecursionError rather
# than a JSONDecodeError: an integer over Python's 4,300-digit limit for
# integer strings, and arrays nested deeper than the recursion limit.
INT_4301_DIGITS = "1" * 4301
INT_310_DIGITS = "1" + "0" * 309  # past the float range
CONFIG_CASES.update({
    "int-4301-digits": lambda tmp_path, fx: _write(
        tmp_path / "config.json", '{"seed": %s}' % INT_4301_DIGITS),
    "nested-100000-deep": lambda tmp_path, fx: _write(
        tmp_path / "config.json", "[" * 100_000 + "]" * 100_000),
})

# --- corpus -----------------------------------------------------------------------

CORPUS = [{"publication_id": "P1", "title": "t", "text": "gut microbiome and dementia",
           "keywords": ["gut"]},
          {"publication_id": "P2", "text": "short-chain fatty acids"}]


def _corpus_case(change=None, raw=None):
    def make(tmp_path, fx):
        docs = json.loads(json.dumps(CORPUS))
        if change is not None:
            change(docs[0])
        data = "".join(json.dumps(doc) + "\n" for doc in docs).encode("utf-8")
        return _write(tmp_path / "corpus.jsonl", raw(data) if raw else data)
    return make


CORPUS_CASES = {
    "truncated": _corpus_case(raw=lambda data: data[:len(data) // 4]),
    "empty": _corpus_case(raw=lambda data: b""),
    "blank-lines": _corpus_case(raw=lambda data: b"\n  \n\r\n\t\n"),
    "not-utf8": _corpus_case(raw=_not_utf8),
    "not-an-object": _corpus_case(raw=lambda data: b"[1]\n" + data),
    **{f"no-{key}": _corpus_case(lambda doc, k=key: doc.pop(k))
       for key in ("publication_id", "text")},
    **{f"{key}-{json.dumps(value)}": _corpus_case(lambda doc, k=key, v=value: doc.update({k: v}))
       for key, value in (("publication_id", 7), ("text", ["t"]), ("title", 5),
                          ("keywords", "gut"), ("text", ""), ("title", "\ud800"))},
    "int-4301-digits": _corpus_case(raw=lambda data: data.replace(
        b'"P1"', b'"P1", "year": ' + INT_4301_DIGITS.encode(), 1)),
}

# --- model bundle -------------------------------------------------------------------


def _bundle(fx):
    return cli._model_bundle(fx["deployment"]["deployed"], fx["deployment"]["split"])


def _node(doc, split):
    return next(node for node in doc["model"]["trees"][0] if ("feature" in node) == split)


def _bundle_cases():
    cases = _json_cases(
        "model.json", _bundle,
        drop=("format", "model", "feature_names", "medians", "train_studies",
              "test_studies"),
        wrong=(("format", "adam-gbdt"), ("model", [1]), ("feature_names", 3),
               ("medians", {"age": "70"}), ("train_studies", [4]), ("test_studies", "P1")))
    cases.update(_json_cases(
        "model.json", _bundle, locate=lambda doc: doc["model"],
        drop=("format", "n_features", "base_score", "params", "trees"),
        wrong=(("n_features", 1.5), ("seed", 4.5), ("base_score", None),
               ("loss_history", [[]]), ("trees", [5]), ("version", 2))))
    cases.update(_json_cases(
        "model.json", _bundle, locate=lambda doc: doc["model"]["params"],
        drop=("n_trees", "max_depth", "learning_rate"),
        wrong=(("n_trees", 2.7), ("max_depth", True), ("learning_rate", []))))
    for split, drop, wrong in ((True, ("feature", "threshold", "gain"),
                                (("feature", 1.9), ("feature", "1"), ("feature", True),
                                 ("threshold", None))),
                               (False, ("value", "cover"), (("cover", {}),))):
        kind = "split" if split else "leaf"
        for case, make in _json_cases(
                "model.json", _bundle, drop=drop, wrong=wrong,
                locate=lambda doc, s=split: _node(doc, s)).items():
            if case not in ("truncated", "not-utf8"):
                cases[f"{kind}-{case}"] = make

    def median_310_digits(tmp_path, fx):
        doc = _bundle(fx)
        name = next(iter(doc["medians"]))
        doc["medians"][name] = int(INT_310_DIGITS)
        return _write(tmp_path / "model.json", json.dumps(doc))
    cases["medians-int-310-digits"] = median_310_digits
    return cases


# --- store file ---------------------------------------------------------------------

METADATA_KEYS = ("publication_id", "segment_index", "text", "topic_keywords")


def _store_collection() -> Collection:
    return collection("col", 4, (
        (VectorRecord(publication_id=f"P{i}", segment_index=1, text=f"text {i}",
                      topic_keywords=("gut",)), np.full(4, i + 1.0))
        for i in range(3)))


def _store_case(change_meta=None, raw=None):
    """The bytes of a 3-record store with the first record's metadata
    changed (and the checksum made to match), or with all bytes changed."""
    def make(tmp_path, fx):
        data = save_collection(_store_collection(), tmp_path / "good").read_bytes()
        if raw is not None:
            return _write(tmp_path / "store" / "col.advec", raw(data))
        (meta_len,) = struct.unpack_from("<I", data, 24)
        blob = change_meta(data[28:28 + meta_len])
        payload = struct.pack("<I", len(blob)) + blob + data[28 + meta_len:]
        dim, count, _ = struct.unpack_from("<IQI", data, 8)
        header = data[:8] + struct.pack("<IQI", dim, count, zlib.crc32(payload))
        return _write(tmp_path / "store" / "col.advec", header + payload)
    return make


def _meta_edit(change):
    def edit(blob):
        meta = json.loads(blob)
        change(meta)
        return json.dumps(meta).encode("utf-8")
    return edit


STORE_CASES = {
    "truncated": _store_case(raw=_truncated),
    "not-utf8": _store_case(lambda blob: blob.replace(b"P0", b"P\xff")),
    "not-an-object": _store_case(lambda blob: b"[" + blob + b"]"),
    **{f"no-{key}": _store_case(_meta_edit(lambda meta, k=key: meta.pop(k)))
       for key in METADATA_KEYS},
    **{f"{key}-{json.dumps(value)}": _store_case(
        _meta_edit(lambda meta, k=key, v=value: meta.update({k: v})))
       for key, value in (("publication_id", 7), ("segment_index", "1"),
                          ("segment_index", True), ("text", ["t"]),
                          ("topic_keywords", "gut"))},
    "segment_index-int-4301-digits": _store_case(lambda blob: blob.replace(
        b'"segment_index":1,', b'"segment_index":' + INT_4301_DIGITS.encode() + b",")),
}

# --- dossier ------------------------------------------------------------------------

REPORT = {"sample_id": "S1", "verdict": "Yes", "probability": 0.75,
          "sections": [["Summary", "text"]], "summary": "s", "step_transcripts": ["a"]}
DOSSIER = {"format": "adam-dossier", "samples": [{"report": REPORT}]}
DOSSIER_CASES = _json_cases(
    "dossier.json", lambda fx: DOSSIER, drop=("format", "samples"),
    wrong=(("format", "adam-model-bundle"), ("samples", {"a": 1}), ("samples", [3])))
DOSSIER_CASES.update(_json_cases(
    "dossier.json", lambda fx: DOSSIER, locate=lambda doc: doc["samples"][0],
    drop=("report",), wrong=(("report", [1]),)))
DOSSIER_CASES.update(_json_cases(
    "dossier.json", lambda fx: DOSSIER, locate=lambda doc: doc["samples"][0]["report"],
    drop=tuple(REPORT),
    wrong=(("sample_id", 7), ("sample_id", "../x"), ("sample_id", "a\ud800"),
           ("verdict", "Maybe"),
           ("probability", "0.5"), ("probability", float("inf")), ("probability", -3.5),
           ("sections", [["t"]]), ("summary", None),
           ("step_transcripts", [1]))))
# a second report of S1 would overwrite the first one's file
DOSSIER_CASES["repeated-sample-id"] = lambda tmp_path, fx: _write(
    tmp_path / "dossier.json", json.dumps({**DOSSIER, "samples": [
        {"report": REPORT}, {"report": {**REPORT, "verdict": "No"}}]}))
DOSSIER_CASES["probability-int-310-digits"] = lambda tmp_path, fx: _write(
    tmp_path / "dossier.json", json.dumps(DOSSIER).replace("0.75", INT_310_DIGITS))

# --- trials CSV ---------------------------------------------------------------------

TRIALS = [["seed", "model", "accuracy", "auc", "f1"],
          ["0", "adam", "1", "", "0.5"],
          ["1", "adam", "0.5", "0.75", "0.5"]]


def _trials_case(change):
    return lambda tmp_path, fx: _write(tmp_path / "trials.csv", change(TRIALS))


def _trials_without(column):
    i = TRIALS[0].index(column)
    return lambda rows: _csv_text([row[:i] + row[i + 1:] for row in rows])


TRIALS_CASES = {
    "truncated": _trials_case(lambda rows: _csv_text(rows)[:-6]),
    "not-utf8": lambda tmp_path, fx: _write(
        tmp_path / "trials.csv", _not_utf8(_csv_text(TRIALS).encode("utf-8"))),
    **{f"no-{column}": _trials_case(_trials_without(column)) for column in TRIALS[0]},
    # every text is a model tag, so the model column has no wrong value
    **{f"{column}-{value}": _trials_case(
        lambda rows, i=TRIALS[0].index(column), v=value: _csv_text(
            rows[:2] + [rows[2][:i] + [v] + rows[2][i + 1:]]))
       for column, value in (("seed", "x"), ("accuracy", "high"), ("auc", "high"),
                             ("f1", "2"))},
}

# --- HTTP replies -------------------------------------------------------------------

EMBEDDING_REPLY = {"data": [{"index": 0, "embedding": [1, 0, 0]}]}
EMBEDDING_CASES = {
    "no-data": {},
    "data-str": {"data": "abc"},
    "data-int-row": {"data": [1]},
    "no-embedding": {"data": [{"index": 0}]},
    "embedding-str": {"data": [{"index": 0, "embedding": "abc"}]},
    "embedding-str-item": {"data": [{"index": 0, "embedding": [1, "x", 0]}]},
    "index-str": {"data": [{"index": "0", "embedding": [1, 0, 0]}]},
    "index-bool": {"data": [{"index": False, "embedding": [1, 0, 0]}]},
    "index-out-of-range": {"data": [{"index": 7, "embedding": [1, 0, 0]}]},
    "index-repeated": {"data": [{"index": 0, "embedding": [1, 0, 0]},
                                {"index": 0, "embedding": [0, 1, 0]}]},
    "index-on-some-rows": {"data": [{"embedding": [1, 0, 0]},
                                    {"index": 0, "embedding": [0, 1, 0]}]},
    "too-few-rows": {"data": []},
}
# Vectors with no finite, nonzero float64 norm, each the second row.
NO_NORM = {"zero": [0, 0, 0], "int-past-float-range": [10**400, 0, 0],
           "norm-underflows": [1e-200] * 3, "norm-overflows": [1e300] * 3}
EMBEDDING_CASES.update({
    f"embedding-{case}": {"data": [EMBEDDING_REPLY["data"][0],
                                   {"index": 1, "embedding": vector}]}
    for case, vector in NO_NORM.items()})
CHAT_REPLY = {"choices": [{"message": {"content": "Prediction: Yes"}}]}
CHAT_CASES = {
    "no-choices": {},
    "choices-empty": {"choices": []},
    "choices-str": {"choices": "x"},
    "choice-int": {"choices": [1]},
    "no-message": {"choices": [{}]},
    "message-str": {"choices": [{"message": "x"}]},
    "no-content": {"choices": [{"message": {}}]},
    "content-int": {"choices": [{"message": {"content": 5}}]},
}


def _texts(doc) -> int:
    """The number of texts whose reply doc is: two for two-row replies."""
    data = doc.get("data")
    return 2 if isinstance(data, list) and len(data) == 2 else 1


class _Response:
    status_code = 200

    def __init__(self, doc):
        self._doc = doc

    def json(self):
        return self._doc


class _Session:
    """Answers every POST with one reply document."""

    def __init__(self, doc):
        self.doc = doc

    def post(self, url, json=None, headers=None, timeout=None):
        return _Response(self.doc)


def _embed_argv(doc, tmp_path, fx):
    # One segment per expected text: 10 characters per segment, no overlap.
    corpus = _write(tmp_path / "corpus.jsonl", json.dumps(
        {"publication_id": "P1", "text": "x" * 10 * _texts(doc)}) + "\n")
    return ["index", "--corpus", str(corpus), "--store", str(tmp_path / "store"),
            "--embedding-backend", "remote", "--embedding-url", "http://embed.test",
            "--embedding-dim", "3", "--segment-length", "10", "--overlap", "0"]


def _chat_argv(doc, tmp_path, fx):
    model = _write(tmp_path / "model.json", json.dumps(_bundle(fx)))
    csv_path, schema_path = fx["dataset"]
    return ["classify", "--dataset", str(csv_path), "--schema", str(schema_path),
            "--model", str(model), "--llm-backend", "remote",
            "--llm-url", "http://llm.test", "--n-pos", "1", "--n-neg", "1",
            "--out", str(tmp_path / "c")]


# --- the table ----------------------------------------------------------------------

ROWS = [
    Row("csv", CSV_CASES,
        read=lambda path, fx: parse_samples(path, _good_schema(path.parent)),
        argv=lambda path, tmp_path, fx: ["ingest", "--dataset", str(path),
                                         "--schema", str(_good_schema(tmp_path))]),
    Row("schema", SCHEMA_CASES,
        read=lambda path, fx: parse_samples(_good_csv(path.parent), path),
        argv=lambda path, tmp_path, fx: ["ingest", "--dataset", str(_good_csv(tmp_path)),
                                         "--schema", str(path)]),
    Row("config", CONFIG_CASES,
        read=lambda path, fx: resolve_config(load_config_file(path, "synth")),
        argv=lambda path, tmp_path, fx: ["synth", "--config", str(path),
                                         "--out", str(tmp_path / "out")]),
    Row("corpus", CORPUS_CASES,
        read=lambda path, fx: read_corpus(path),
        argv=lambda path, tmp_path, fx: ["index", "--corpus", str(path),
                                         "--store", str(tmp_path / "store")]),
    Row("bundle", _bundle_cases(),
        read=lambda path, fx: cli._load_model_bundle(path),
        argv=lambda path, tmp_path, fx: [
            "classify", "--dataset", str(fx["dataset"][0]), "--schema", str(fx["dataset"][1]),
            "--model", str(path), "--out", str(tmp_path / "c")]),
    Row("advec", STORE_CASES,
        read=lambda path, fx: load_collection(path),
        argv=lambda path, tmp_path, fx: ["index", "--store", str(path.parent),
                                         "--embedding-dim", "4"]),
    Row("dossier", DOSSIER_CASES,
        read=lambda path, fx: read_dossier(path),
        argv=lambda path, tmp_path, fx: ["report", "--dossier", str(path),
                                         "--out", str(tmp_path / "r")]),
    Row("trials", TRIALS_CASES,
        read=lambda path, fx: read_trials_csv(path),
        argv=lambda path, tmp_path, fx: [
            "compare", "--adam", str(path),
            "--baseline", str(_write(tmp_path / "good.csv", _csv_text(TRIALS)))]),
    Row("embedding-reply",
        {case: lambda tmp_path, fx, d=doc: d for case, doc in EMBEDDING_CASES.items()},
        read=lambda doc, fx: RemoteEmbedder(
            "http://embed.test", dim=3, api_key="k", session=_Session(doc),
            sleeper=lambda s: None)._parse(doc, _texts(doc)),
        argv=_embed_argv),
    Row("chat-reply",
        {case: lambda tmp_path, fx, d=doc: d for case, doc in CHAT_CASES.items()},
        read=lambda doc, fx: HttpChatBackend._parse(doc),
        argv=_chat_argv),
]
ROW_BY_NAME = {row.name: row for row in ROWS}
CASES = [pytest.param(row.name, case, id=f"{row.name}-{case}")
         for row in ROWS for case in row.cases]


@pytest.fixture()
def fx(deployment, dataset_paths, monkeypatch):
    """What the rows build their inputs from. HTTP replies come from a
    session that answers with the case's document, so no request leaves
    the process."""
    monkeypatch.setenv("ADAM_EMBED_API_KEY", "k")
    monkeypatch.setenv("ADAM_LLM_API_KEY", "k")
    return {"deployment": deployment, "dataset": dataset_paths}


def _names(row, bad) -> str:
    """What the error must name: the file, or the reply."""
    if isinstance(bad, Path):
        return str(bad)
    return {"embedding-reply": "malformed embeddings response",
            "chat-reply": "malformed chat response"}[row.name]


# What a case's error names beyond the file or the reply: its line or row.
PLACES = {"corpus-int-4301-digits": ["line 1: invalid JSON"],
          **{f"embedding-reply-embedding-{case}": ["data[1]"] for case in NO_NORM}}


@pytest.mark.parametrize("row_name, case", CASES)
def test_reader_rejects_malformed_input(row_name, case, tmp_path, fx, capsys,
                                        monkeypatch):
    row = ROW_BY_NAME[row_name]
    bad = row.cases[case](tmp_path, fx)
    names = [_names(row, bad)]
    if row_name == "config" and case in OUT_OF_RANGE:
        names.append(repr(OUT_OF_RANGE[case][0]))
    if case == "repeated-sample-id":
        names.append("sample 1")
    names.extend(PLACES.get(f"{row_name}-{case}", ()))
    with pytest.raises(AdamError) as err:
        row.read(bad, fx)
    assert all(name in str(err.value) for name in names)
    if row_name == "advec" and case.startswith("segment_index"):
        assert err.value.offset == 28  # the first record's metadata

    if not isinstance(bad, Path):
        import requests

        monkeypatch.setattr(requests, "Session", lambda: _Session(bad))
    assert main(row.argv(bad, tmp_path, fx)) == 1
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    err_lines = stderr.splitlines()
    assert len(err_lines) == 1, err_lines
    assert err_lines[0].startswith("error: ")
    assert all(name in err_lines[0] for name in names)
    if row_name == "corpus":
        assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("row_name", sorted(ROW_BY_NAME))
def test_row_accepts_its_valid_input(row_name, tmp_path, fx):
    """The valid input each row's cases start from reads without error."""
    valid = {
        "csv": lambda: parse_samples(_good_csv(tmp_path), _good_schema(tmp_path)),
        "schema": lambda: parse_samples(_good_csv(tmp_path), _good_schema(tmp_path)),
        "config": lambda: resolve_config(load_config_file(
            _write(tmp_path / "config.json", json.dumps(CONFIG)), "synth")),
        "corpus": lambda: read_corpus(_corpus_case()(tmp_path, fx)),
        "bundle": lambda: cli._load_model_bundle(
            _write(tmp_path / "model.json", json.dumps(_bundle(fx)))),
        "advec": lambda: load_collection(
            save_collection(_store_collection(), tmp_path / "store")),
        "dossier": lambda: read_dossier(_write(tmp_path / "d.json", json.dumps(DOSSIER))),
        "trials": lambda: read_trials_csv(_write(tmp_path / "t.csv", _csv_text(TRIALS))),
        "embedding-reply": lambda: ROW_BY_NAME["embedding-reply"].read(EMBEDDING_REPLY, fx),
        "chat-reply": lambda: ROW_BY_NAME["chat-reply"].read(CHAT_REPLY, fx),
    }
    assert valid[row_name]()


# --- inputs each file accepts alone but not together ---------------------------------

def _classify(fx, tmp_path, bundle, dataset):
    model = _write(tmp_path / "model.json", json.dumps(bundle))
    return model, ["classify", "--dataset", str(dataset), "--schema", str(fx["dataset"][1]),
                   "--model", str(model), "--n-pos", "1", "--n-neg", "1",
                   "--out", str(tmp_path / "c")]


def _one_error_line(capsys) -> str:
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.parametrize("zeroed, named", [
    ("every label-1 row", "sample"),
    ("one healthy training row", "reference sample"),
])
def test_classify_names_a_visit_with_no_positive_taxon(zeroed, named, tmp_path, fx,
                                                       capsys):
    """Ingest reads missing taxa as 0, so a row with every taxon 0 is
    accepted; the computational pass rejects it by sample id before any
    report is written, whether it is a cohort visit or a reference row."""
    csv_path, schema_path = fx["dataset"]
    bundle = _bundle(fx)
    taxa = {c for c, role in json.loads(schema_path.read_text())["columns"].items()
            if role == "taxon"}
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    study, label = header.index("study_id"), header.index("label")
    zeroed_ids = []
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if (cells[label] == "1" if zeroed == "every label-1 row" else
                not zeroed_ids and cells[label] == "0"
                and cells[study] in bundle["train_studies"]):
            zeroed_ids.append(cells[0])
            cells = ["0" if name in taxa else c for name, c in zip(header, cells)]
        rows.append(",".join(cells))
    dataset = _write(tmp_path / "zeroed.csv", "\n".join(rows) + "\n")
    _, argv = _classify(fx, tmp_path, bundle, dataset)
    assert main(argv) == 1
    line = _one_error_line(capsys)
    prefix = f"error: {named} "
    suffix = ": abundance vector has no positive entries"
    assert line.startswith(prefix) and line.endswith(suffix)
    assert line[len(prefix):-len(suffix)] in zeroed_ids
    assert not (tmp_path / "c" / "reports").exists()


def test_classify_names_bundle_and_dataset_for_a_missing_feature(tmp_path, fx, capsys):
    bundle = _bundle(fx)
    old = bundle["feature_names"][0]
    bundle["feature_names"][0] = "zzz"
    bundle["medians"]["zzz"] = bundle["medians"].pop(old)
    model, argv = _classify(fx, tmp_path, bundle, fx["dataset"][0])
    assert main(argv) == 1
    line = _one_error_line(capsys)
    assert str(model) in line and str(fx["dataset"][0]) in line and "'zzz'" in line


# --- every reader has a row -----------------------------------------------------------

# The functions of errors.py that every reader calls.
READING = {"check_fields", "read_text", "parse_object", "read_csv"}
# Each function outside errors.py that calls one of them, and its row.
READERS = {
    "adam.chunker.read_corpus": "corpus",
    "adam.cli._load_model_bundle": "bundle",
    "adam.cli.read_dossier": "dossier",
    "adam.config.RunConfig.validate": "config",
    "adam.config._check": "config",
    "adam.config.load_config_file": "config",
    "adam.dataset.load_schema": "schema",
    "adam.dataset.parse_samples": "csv",
    "adam.embedding.RemoteEmbedder._parse": "embedding-reply",
    "adam.agents.llm.HttpChatBackend._parse": "chat-reply",
    "adam.ensemble.gbdt._tree_from_list": "bundle",
    "adam.ensemble.gbdt.model_from_dict": "bundle",
    "adam.comparison.read_trials_csv": "trials",
    "adam.vectorstore.load_collection": "advec",
}


def _functions(node, prefix):
    """(qualified name, node) of each function defined in node's body,
    methods included."""
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{child.name}", child
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}.{child.name}")


def _called(function) -> set:
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            target = node.func
            names.add(target.id if isinstance(target, ast.Name)
                      else getattr(target, "attr", None))
    return names


def test_every_reader_has_a_row():
    source = Path(adam.__file__).parent
    readers = set()
    for path in sorted(source.rglob("*.py")):
        if path.name == "errors.py":
            continue
        parts = path.relative_to(source).with_suffix("").parts
        module = ".".join(("adam",) + parts[:-1] + (() if parts[-1] == "__init__"
                                                    else parts[-1:]))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers.update(name for name, function in _functions(tree, module)
                       if _called(function) & READING)
    assert readers == set(READERS)
    assert set(READERS.values()) == set(ROW_BY_NAME)
