"""End-to-end command-line walkthrough plus configuration resolution."""

import csv
import hashlib
import json
import struct
import zlib
from pathlib import Path

import pytest

from adam.cli import build_parser, main, read_dossier
from adam.comparison import read_trials_csv
from adam.config import (
    RESOLVED_CONFIG_NAME,
    RunConfig,
    load_config_file,
    resolve_config,
)
from adam.errors import FormatError, SchemaError

EMBED_DIM = "64"


def _write_corpus(path):
    docs = [
        {"publication_id": "PUB0001", "title": "Microbial diversity in dementia",
         "text": "Shannon diversity differs between groups. " * 60,
         "keywords": ["alzheimer", "diversity"]},
        {"publication_id": "PUB0002", "title": "Gut flora and immune aging",
         "text": "Commensal bacteria modulate immune senescence. " * 80,
         "keywords": ["gut", "microbiome"]},
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Artifacts of one full CLI walkthrough, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "0"]) == 0
    resolved = json.loads((data / RESOLVED_CONFIG_NAME).read_text())
    dataset, schema = resolved["dataset"], resolved["schema"]

    assert main(["ingest", "--dataset", dataset, "--schema", schema,
                 "--out", str(root / "ingest")]) == 0

    corpus = root / "corpus.jsonl"
    _write_corpus(corpus)
    store = root / "store"
    assert main(["index", "--corpus", str(corpus), "--store", str(store),
                 "--embedding-dim", EMBED_DIM, "--verify"]) == 0

    train_dir = root / "train"
    assert main(["train", "--dataset", dataset, "--schema", schema,
                 "--out", str(train_dir), "--seed", "0"]) == 0
    model = str(train_dir / "model.json")

    classify_args = ["--dataset", dataset, "--schema", schema,
                     "--model", model, "--store", str(store),
                     "--embedding-dim", EMBED_DIM, "--seed", "0"]
    first, second = root / "classify-a", root / "classify-b"
    assert main(["classify", "--out", str(first)] + classify_args) == 0
    assert main(["classify", "--out", str(second)] + classify_args) == 0

    eval_dir = root / "eval"
    assert main(["evaluate", "--dataset", dataset, "--schema", schema,
                 "--out", str(eval_dir), "--seeds", "3",
                 "--models", "gbdt,adam"]) == 0

    compare_dir = root / "compare"
    assert main(["compare", "--adam", str(eval_dir / "trials-adam.csv"),
                 "--baseline", str(eval_dir / "trials-baseline-gbdt.csv"),
                 "--out", str(compare_dir)]) == 0

    report_dir = root / "rerender"
    assert main(["report", "--dossier", str(first / "dossier.json"),
                 "--out", str(report_dir)]) == 0

    return {"root": root, "dataset": dataset, "schema": schema,
            "store": store, "model": model, "first": first, "second": second,
            "eval": eval_dir, "compare": compare_dir, "report": report_dir}


# --- per-command artifacts ----------------------------------------------------

def test_synth_and_ingest_artifacts(workspace):
    summary = (workspace["root"] / "ingest" / "dataset-summary.txt").read_text()
    assert "samples: 335" in summary
    assert "positive samples: 110" in summary
    assert "studies: 100" in summary
    assert "rejected rows: 0" in summary


def test_resolved_config_echo(workspace):
    for directory, command in ((workspace["root"] / "data", "synth"),
                               (workspace["store"], "index"),
                               (workspace["root"] / "train", "train"),
                               (workspace["first"], "classify"),
                               (workspace["eval"], "evaluate"),
                               (workspace["compare"], "compare"),
                               (workspace["report"], "report")):
        payload = json.loads((directory / RESOLVED_CONFIG_NAME).read_text())
        assert payload["command"] == command
        missing = {f for f in RunConfig.__dataclass_fields__
                   if f not in payload}
        assert not missing


def test_index_store_files(workspace):
    names = sorted(p.name for p in workspace["store"].glob("*.advec"))
    assert names == ["alzheimers.advec", "microbiome.advec"]


def test_train_bundle_shape(workspace):
    bundle = json.loads((workspace["root"] / "train" / "model.json").read_text())
    assert bundle["format"] == "adam-model-bundle"
    assert len(bundle["feature_names"]) == 20
    assert set(bundle["medians"]) == set(bundle["feature_names"])
    assert bundle["model"]["format"] == "adam-gbdt"
    assert not set(bundle["train_studies"]) & set(bundle["test_studies"])


# sha256 of model.json from `synth --seed 0` + `train --seed 0` as written by
# the node-based trees (numpy 2.4, x86-64); the array trees must not move a byte.
NODE_TREE_MODEL_SHA256 = "d507c86211724156f5f1266438dcdd20c32f357a72d02bad5465b58fc23f4fc4"


def test_train_model_bytes_unchanged(workspace):
    data = (workspace["root"] / "train" / "model.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == NODE_TREE_MODEL_SHA256



# sha256 of the .advec files `index` writes from the three-document fixture
# corpus, as written by the per-text embedder; the batched pass must not move
# a byte.
PER_TEXT_STORE_SHA256 = {
    "64": {
        "alzheimers.advec": "1f95ac325535ba10decc7bffd1a7199ce70b8377a214ec0450916e0d18488c27",
        "microbiome.advec": "390679c174df28d8b399a20c44b05187df7cbf8d970549d825eea16c25e07d4b",
    },
    "1536": {
        "alzheimers.advec": "46a02a8cab4d433d5cedf05d3a15ff4cf35b73c223bb0418f0937f75a8c706db",
        "microbiome.advec": "758cbf623950f3239b00b2dc8e156b6a9961f02256af9664ac1d132b97753366",
    },
}


@pytest.mark.parametrize("dim", sorted(PER_TEXT_STORE_SHA256))
def test_index_store_bytes_unchanged(tmp_path, corpus_path, dim):
    store = tmp_path / "store"
    assert main(["index", "--corpus", str(corpus_path), "--store", str(store),
                 "--embedding-dim", dim]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in store.glob("*.advec")}
    assert got == PER_TEXT_STORE_SHA256[dim]


def _files(directory):
    """Every file under directory, by relative path, with its bytes."""
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("setup", ["missing", "empty", "no-advec-file"])
def test_index_without_corpus_rejects_a_store_with_no_collections(
        tmp_path, capsys, setup):
    store = tmp_path / "store"
    if setup != "missing":
        store.mkdir()
    if setup == "no-advec-file":
        (store / "notes.txt").write_text("kept\n", encoding="utf-8")
    before = _files(tmp_path)
    assert main(["index", "--store", str(store)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {store}: no collections found\n"
    assert "verified" not in captured.out
    assert _files(tmp_path) == before
    assert store.exists() == (setup != "missing")


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
def test_index_refuses_to_leave_a_stale_collection(tmp_path, capsys,
                                                    corpus_path, verify):
    store = tmp_path / "store"
    assert main(["index", "--corpus", str(corpus_path), "--store", str(store),
                 "--embedding-dim", EMBED_DIM]) == 0
    assert sorted(p.name for p in store.glob("*.advec")) == \
        ["alzheimers.advec", "microbiome.advec"]
    # A second corpus that routes only to alzheimers.
    first = corpus_path.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(first)["keywords"] == ["alzheimer", "diversity"]
    smaller = tmp_path / "smaller.jsonl"
    smaller.write_text(first + "\n", encoding="utf-8")
    before = _files(store)
    capsys.readouterr()
    argv = ["index", "--corpus", str(smaller), "--store", str(store),
            "--embedding-dim", EMBED_DIM] + (["--verify"] if verify else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {store / 'microbiome.advec'}: ")
    assert "'microbiome'" in err and err.count("\n") == 1
    assert _files(store) == before


def test_index_rejects_unencodable_corpus_text(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"publication_id": "P1", "text": "ab\\ud800cd"}\n',
                      encoding="utf-8")
    assert main(["index", "--corpus", str(corpus),
                 "--store", str(tmp_path / "store")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}: line 1: 'text' must be ")
    assert "Traceback" not in err
    assert not (tmp_path / "store").exists()

def _split_node(doc):
    return next(e for e in doc["model"]["trees"][0] if "feature" in e)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["model"].pop("params"), id="no-params"),
    pytest.param(lambda d: _split_node(d).update(feature=len(d["feature_names"])),
                 id="feature-out-of-range"),
    pytest.param(lambda d: d["model"]["trees"][0].pop(), id="truncated-tree"),
    pytest.param(lambda d: _split_node(d).update(threshold="nan"), id="nan-threshold"),
])
def test_classify_rejects_corrupt_model(workspace, tmp_path, capsys, edit):
    bundle = json.loads((workspace["root"] / "train" / "model.json").read_text())
    edit(bundle)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(bundle))
    assert main(["classify", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"], "--model", str(bad),
                 "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_classify_rejects_non_finite_store_vector(workspace, tmp_path, capsys,
                                                  value):
    store = tmp_path / "store"
    store.mkdir()
    for path in sorted(workspace["store"].glob("*.advec")):
        (store / path.name).write_bytes(path.read_bytes())
    path = sorted(store.glob("*.advec"))[-1]
    data = path.read_bytes()
    dim, count, _ = struct.unpack_from("<IQI", data, 8)
    (meta_len,) = struct.unpack_from("<I", data, 24)
    edited = bytearray(data)
    struct.pack_into("<f", edited, 28 + meta_len + 4 * (dim - 1), value)
    payload = bytes(edited[24:])
    path.write_bytes(data[:8] + struct.pack("<IQI", dim, count,
                                            zlib.crc32(payload)) + payload)
    out = tmp_path / "c"
    assert main(["classify", "--out", str(out), "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"], "--model", workspace["model"],
                 "--store", str(store), "--embedding-dim", EMBED_DIM,
                 "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {path}: record vector component {dim - 1} is "
                   f"{float(value)} at byte {28 + meta_len}\n")
    assert not out.exists()


def _first_name(doc):
    return doc["feature_names"][0]


def _edited(change):
    """An edit that applies change to the parsed bundle and returns it."""
    def edit(doc):
        change(doc)
        return doc
    return edit


# (id, edit of the parsed bundle, text the error names); the edited bundle
# is written back with json.dumps, which writes a non-finite float as NaN.
MALFORMED_BUNDLES = [
    *((f"no-{key}", _edited(lambda d, k=key: d.pop(k)), text)
      for key, text in (("format", "'format' must be 'adam-model-bundle'"),
                        ("model", "'model'"),
                        ("feature_names", "'feature_names'"),
                        ("medians", "'medians'"),
                        ("train_studies", "'train_studies'"),
                        ("test_studies", "'test_studies'"))),
    ("not-an-object", lambda d: [d], "expected a JSON object, got ["),
    ("model-list", _edited(lambda d: d.update(model=[1])), "'model'"),
    ("feature_names-int", _edited(lambda d: d.update(feature_names=3)),
     "'feature_names'"),
    ("feature_names-int-item",
     _edited(lambda d: d["feature_names"].__setitem__(0, 7)), "'feature_names'"),
    ("feature_names-short", _edited(lambda d: d["feature_names"].pop()),
     "model consumes 20 features but 19 names"),
    ("medians-list", _edited(lambda d: d.update(medians=[0.5])), "'medians'"),
    *((f"medians-{label}-value",
       _edited(lambda d, v=value: d["medians"].update({_first_name(d): v})),
       "'medians'")
      for label, value in (("null", None), ("str", "0.5"), ("bool", True),
                           ("nan", float("nan")), ("inf", float("inf")))),
    ("medians-missing-name", _edited(lambda d: d["medians"].pop(_first_name(d))),
     "no imputation median for"),
    ("train_studies-int", _edited(lambda d: d.update(train_studies=4)),
     "'train_studies'"),
    ("train_studies-int-item", _edited(lambda d: d["train_studies"].append(4)),
     "'train_studies'"),
    ("test_studies-int", _edited(lambda d: d.update(test_studies=4)),
     "'test_studies'"),
    ("test_studies-object", _edited(lambda d: d.update(test_studies={"a": 1})),
     "'test_studies'"),
]


@pytest.mark.parametrize("edit, text", [
    pytest.param(edit, text, id=case) for case, edit, text in MALFORMED_BUNDLES
] + [pytest.param(None, "invalid JSON", id="truncated")])
def test_classify_rejects_malformed_bundle(workspace, tmp_path, capsys, edit, text):
    from adam import cli

    raw = (workspace["root"] / "train" / "model.json").read_text()
    bad = tmp_path / "model.json"
    if edit is None:
        bad.write_text(raw[:len(raw) // 2])
    else:
        bad.write_text(json.dumps(edit(json.loads(raw))))
    with pytest.raises(FormatError) as err:
        cli._load_model_bundle(bad)
    assert str(err.value).startswith(f"{bad}: ")
    assert text in str(err.value)
    assert main(["classify", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"], "--model", str(bad),
                 "--out", str(tmp_path / "c")]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: {bad}: ")
    assert text in err_lines[0]


def test_classify_rerun_is_byte_identical(workspace):
    first, second = workspace["first"], workspace["second"]
    assert (first / "dossier.json").read_bytes() == \
        (second / "dossier.json").read_bytes()
    reports = sorted(p.name for p in (first / "reports").glob("*.md"))
    assert len(reports) == 30
    for name in reports:
        assert (first / "reports" / name).read_bytes() == \
            (second / "reports" / name).read_bytes()


# sha256 of what `classify --threshold 0.2` writes from the workspace store,
# as written when each stage embedded and scanned its own 8 step queries
# (numpy 2.4, x86-64); the one retrieval pass per cohort must not move a byte.
THRESHOLD_02_SHA256 = {
    "dossier.json": "c5125ec4cba1d86c1a5e7dba6da068717a60d377ef03eac8f7508ecd16df3150",
    "reports/FB040.md": "ee202847b8a741f92eaa524b3667159e59a663227e8cefb7e260508bad8f954d",
    "reports/FB041.md": "81516e6be7f7623aba100b2a8d88064b9af19e7e16bb2c4ec825b5e41abd4701",
    "reports/FB074.md": "670d0d10051468dd6769c760b355cf350f50b34312fa6c80840611d0712283c7",
    "reports/FB076.md": "d520590a026e931e5730c656298ccd967f0411b7e04a178f6a87bf931258d2de",
    "reports/FB087.md": "a37fce999da0ac103c0f594ef382477bd2be2b4b8bb51ac5f3985b58dfaa6195",
    "reports/FB089.md": "8df0ac27525520b72fd07bd3f3cd63bed3327e94b42bb4a3f870d9aec7de4bb5",
    "reports/FB091.md": "458f761d2a835b08406ac9e2455e387ad863ffb2cbf3ba59b2bd57bc6288bceb",
    "reports/FB092.md": "ae3c4841889cd6f3851efd88b2f1d6027fcfd9a4cf79d04321fce77aa6905ce7",
    "reports/FB145.md": "4e60f8d01efe09565ce5e3a244d40d3be2c3c5d6f40d11c6b33e8d1eb9422591",
    "reports/FB146.md": "8ec336ae281de98058cee9539dc1f5a37da2e0b25f2ddde2a1514da83a74d816",
    "reports/FB161.md": "ca5a265529ec71d322ec6844c6e533c566149daaaf21a0436dc11d65fdd031d2",
    "reports/FB164.md": "6acc73a751a7447ac37aed1106ccf3e1ff6f3b5e45af50b8939955328f69bb62",
    "reports/FB168.md": "27c825494b5e5e7b7b2ce02d3e5ac4ee9a780763e998b78821d27dfedb0fd81c",
    "reports/FB173.md": "84966c40771fb4db53633893d1d48af3e2b5aba4d5793585a7096b92f5df6054",
    "reports/FB174.md": "9e024f83b159c27939311b26070bf4d380449ca8b815094e0cb8993926c50cb2",
    "reports/FB175.md": "5e7e0d0c4c045594ea841680b2f19f76c78810aaa6a88fa50aae7fa61ae3b34d",
    "reports/FB196.md": "2c23ca615ef0eb3562eeadce3ac741b888129f76058ba2bb002c170894035b0a",
    "reports/FB262.md": "d7d11a44b569d2c896f96c93c0b865e7aefe5a78582001cec7aac2ffb5e2fc5d",
    "reports/FB263.md": "49b86b449c2c65e3c7af2aa0e59cacbc8420835ea623126fe620aeefd14ddbda",
    "reports/FB264.md": "e7a5443995b52e01deffec75b788dd22c85a4a5d421fa66cef2bf953e4e1cf76",
    "reports/FB266.md": "1c1b62af7467aa1ceb9a8627a0da83a7cc09b2be3c7eb5ce0d6809f025bc7ab1",
    "reports/FB276.md": "fd0170767f64a6d8a39dd08c4ee4eddc76529ef646f34bba2566e3b9a51b4d1b",
    "reports/FB278.md": "bd34b7548df9ef850d9ed14c5004f98b30fddb06e19cd7c12d5a14471dedfab1",
    "reports/FB280.md": "6de1bfb9b8dc3805c6591a3c57a24eac9c1f5131c0dd9bc875a1c56058539750",
    "reports/FB281.md": "5f1acb8049d1165c4a5620bcbe142693433ce1eb3dd53baa0ee97d8f26ec23da",
    "reports/FB296.md": "054af94071be383fc2bd525e6bf6829ca4e0f4f61b82676137a73b132606abcf",
    "reports/FB298.md": "a5447376412231518f82702d788c721d2c200ddfa3a83fde088b25d5a7029207",
    "reports/FB304.md": "83d74ff7656b018bec44f8d1a9331ffcbc725a031d84dca6da47809e52505eba",
    "reports/FB314.md": "42b5273b2623ede6d8611710e88bd84ea0f32ae3f15bbf899dfdcd96ed71083b",
    "reports/FB327.md": "7013fcc3897e17a76235d115ec572c4b7e599959455ff86b6efa253b47718248",
}


def test_classify_bytes_unchanged_with_hits(workspace, tmp_path):
    out = tmp_path / "c"
    assert main(["classify", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"], "--model", workspace["model"],
                 "--store", str(workspace["store"]),
                 "--embedding-dim", EMBED_DIM, "--seed", "0",
                 "--threshold", "0.2", "--out", str(out)]) == 0
    dossier = json.loads((out / "dossier.json").read_text())
    assert any("hits: 0" not in line for entry in dossier["samples"]
               for line in entry["report"]["step_transcripts"])
    written = [out / "dossier.json"] + sorted((out / "reports").glob("*.md"))
    assert {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in written} == THRESHOLD_02_SHA256


@pytest.mark.parametrize("fail_on", [1, 3])
def test_classify_embed_failure_stops_before_any_report(workspace, tmp_path,
                                                        capsys, monkeypatch,
                                                        fail_on):
    """The cohort's step queries are embedded before the first stage runs,
    so an embedder failing on any call leaves no report behind."""
    from adam.embedding import OfflineHashEmbedder
    from adam.errors import BackendError

    calls = []
    embed_many = OfflineHashEmbedder.embed_many

    def failing(self, texts):
        calls.append(len(texts))
        if len(calls) == fail_on:
            raise BackendError("embedding endpoint refused the request")
        return embed_many(self, texts)

    monkeypatch.setattr(OfflineHashEmbedder, "embed_many", failing)
    out = tmp_path / "c"
    assert main(["classify", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"], "--model", workspace["model"],
                 "--store", str(workspace["store"]),
                 "--embedding-dim", EMBED_DIM, "--seed", "0",
                 "--out", str(out)]) == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert err_lines == ["error: embedding endpoint refused the request"]
    assert len(calls) == fail_on
    assert not list(out.glob("reports/*.md"))
    assert not (out / "dossier.json").exists()


def test_classify_backend_failure_on_the_third_sample_writes_nothing(
        workspace, tmp_path, capsys, monkeypatch):
    """Reports and the dossier are written only once every sample's stages
    have returned, so a classification backend that fails mid-cohort
    leaves no file behind."""
    from adam.agents.llm import ThresholdMockLLM
    from adam.errors import BackendError

    calls = []
    complete = ThresholdMockLLM.complete

    def failing(self, request):
        calls.append(request)
        if len(calls) == 3:
            raise BackendError("chat endpoint refused the request")
        return complete(self, request)

    monkeypatch.setattr(ThresholdMockLLM, "complete", failing)
    out = tmp_path / "c"
    assert main(["classify", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"], "--model", workspace["model"],
                 "--store", str(workspace["store"]),
                 "--embedding-dim", EMBED_DIM, "--seed", "0",
                 "--out", str(out)]) == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert err_lines == ["error: classification backend failed: "
                         "chat endpoint refused the request"]
    assert len(calls) == 3
    assert not (out / "reports").exists()
    assert not (out / "dossier.json").exists()


def test_classify_dossier_contents(workspace):
    dossier = json.loads((workspace["first"] / "dossier.json").read_text())
    assert dossier["format"] == "adam-dossier"
    assert dossier["cohort"] == {"n_pos": 15, "n_neg": 15, "seed": 0,
                                 "size": 30}
    entries = dossier["samples"]
    assert len(entries) == 30
    assert sum(e["label"] == 1 for e in entries) == 15
    for entry in entries:
        assert entry["verdict"] in ("Yes", "No")
        assert 0.0 <= entry["probability"] <= 1.0
        assert entry["prompt_tokens"]["summarization"] <= 100_000
        assert entry["prompt_tokens"]["classification"] <= 50_000
        assert len(entry["report"]["step_transcripts"]) == 16
        body = (workspace["first"] / entry["report_path"]).read_text()
        assert body.startswith(f"Prediction: {entry['verdict']} - ")


def test_classify_rejects_path_like_and_non_finite_rows(workspace, tmp_path, capsys):
    """A row whose sample id is not a plain file name, or with an infinite
    value, is rejected at ingest; every report stays under reports/."""
    dossier = json.loads((workspace["first"] / "dossier.json").read_text())
    renamed = dossier["samples"][0]["sample_id"]
    infinite = dossier["samples"][1]["sample_id"]
    with open(workspace["dataset"], encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    age = rows[0].index("age")
    for row in rows[1:]:
        if row[0] == renamed:
            row[0] = "../escaped"
        elif row[0] == infinite:
            row[age] = "inf"
    data = tmp_path / "data.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "c"
    assert main(["classify", "--out", str(out), "--dataset", str(data),
                 "--schema", workspace["schema"], "--model", workspace["model"],
                 "--store", str(workspace["store"]),
                 "--embedding-dim", EMBED_DIM, "--seed", "0"]) == 0
    err = capsys.readouterr().err
    assert "sample_id '../escaped' is not a plain file name" in err
    assert "bad clinical value: non-finite value 'inf'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "data.csv"]
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    reports = {name for name in written if name.startswith("reports/")}
    assert written - reports == {"dossier.json", RESOLVED_CONFIG_NAME}
    assert len(reports) == 30
    assert f"reports/{renamed}.md" not in reports


def test_evaluate_outputs(workspace):
    eval_dir = workspace["eval"]
    table = (eval_dir / "metrics.txt").read_text()
    assert "averaged across 3 random seeds" in table
    assert "baseline-gbdt" in table and "adam" in table
    trials = (eval_dir / "trials.csv").read_text().splitlines()
    assert trials[0] == "seed,model,accuracy,auc,f1"
    assert len(trials) == 1 + 3 * 2
    adam_rows = (eval_dir / "trials-adam.csv").read_text().splitlines()
    gbdt_rows = (eval_dir / "trials-baseline-gbdt.csv").read_text().splitlines()
    assert len(adam_rows) == len(gbdt_rows) == 4
    for adam_row, gbdt_row in zip(adam_rows[1:], gbdt_rows[1:]):
        assert adam_row.split(",")[2:] == gbdt_row.split(",")[2:]


def test_compare_identical_models_is_degenerate(workspace):
    text = (workspace["compare"] / "comparison.txt").read_text()
    assert "cohens_d: 0" in text
    assert "mann_whitney_p: 1" in text


def test_compare_prints_undefined_statistics(tmp_path, capsys):
    header = "seed,model,accuracy,auc,f1\n"
    adam = tmp_path / "trials-adam.csv"
    adam.write_text(header + "0,adam,0.9,1,0.9\n1,adam,1,1,1\n")
    flat = tmp_path / "trials-baseline-rf.csv"
    flat.write_text(header + "0,baseline-rf,1,1,1\n1,baseline-rf,1,1,1\n")
    assert main(["compare", "--adam", str(adam), "--baseline", str(flat)]) == 0
    out = capsys.readouterr().out
    assert "f_test_p: undefined (variance F-test undefined for zero variance)" in out
    assert "mann_whitney_p: " in out

    one = tmp_path / "one.csv"
    one.write_text(header + "0,adam,1,1,1\n")
    assert main(["compare", "--adam", str(one), "--baseline", str(flat)]) == 0
    out = capsys.readouterr().out
    assert "adam_std_f1: undefined (each group needs at least 2 values)" in out
    assert "baseline_std_f1: 0\n" in out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line.startswith(("adam ", "baseline "))}
    assert rows["adam"] == ["1", "1.0000", "undefined", "undefined"]
    assert rows["baseline"] == ["2", "1.0000", "0.0000", "0.0000"]

    short = tmp_path / "short.csv"
    short.write_text(header + "0,baseline-lr,1\n")
    assert main(["compare", "--adam", str(adam), "--baseline", str(short)]) == 1
    assert f"{short}: line 2: expected 5 fields" in capsys.readouterr().err


def test_report_rerender_matches_original(workspace):
    original = workspace["first"] / "reports"
    rerendered = workspace["report"] / "reports"
    names = sorted(p.name for p in original.glob("*.md"))
    assert sorted(p.name for p in rerendered.glob("*.md")) == names
    for name in names:
        assert (original / name).read_bytes() == \
            (rerendered / name).read_bytes()


# --- exit codes ----------------------------------------------------------------

def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["synth", "--out", "x", "--no-such-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_diagnosed_failures_exit_1(workspace, tmp_path, capsys):
    assert main(["ingest", "--dataset", str(tmp_path / "missing.csv"),
                 "--schema", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["classify", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"],
                 "--out", str(tmp_path / "c")]) == 1
    assert "--model" in capsys.readouterr().err

    assert main(["index", "--corpus", "whatever.jsonl",
                 "--store", str(tmp_path / "s")]) == 1

    assert main(["evaluate", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"],
                 "--out", str(tmp_path / "e"), "--models", "xgboost"]) == 1
    assert "unknown model" in capsys.readouterr().err

    mixed = workspace["eval"] / "trials.csv"
    assert main(["compare", "--adam", str(mixed),
                 "--baseline", str(mixed)]) == 1
    assert "model tags" in capsys.readouterr().err

    not_dossier = tmp_path / "plain.json"
    not_dossier.write_text("{}")
    assert main(["report", "--dossier", str(not_dossier),
                 "--out", str(tmp_path / "r")]) == 1


def test_a_program_fault_propagates_out_of_main(monkeypatch, tmp_path):
    """Only an AdamError or an OSError becomes an error: line; a ValueError
    is a program fault and keeps its traceback."""
    from adam import cli

    def broken(args):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "cmd_synth", broken)
    with pytest.raises(ValueError, match="a bug, not bad input"):
        main(["synth", "--out", str(tmp_path / "data")])


# --- configuration resolution ---------------------------------------------------

def test_config_file_precedence(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"seed": 7, "top_k": 9}))
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(config_file),
                 "--out", str(out)]) == 0
    resolved = json.loads((out / RESOLVED_CONFIG_NAME).read_text())
    assert resolved["seed"] == 7
    assert resolved["top_k"] == 9

    out2 = tmp_path / "synth2"
    assert main(["synth", "--config", str(config_file), "--seed", "9",
                 "--out", str(out2)]) == 0
    resolved = json.loads((out2 / RESOLVED_CONFIG_NAME).read_text())
    assert resolved["seed"] == 9


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"sede": 7}))
    assert main(["synth", "--config", str(config_file),
                 "--out", str(tmp_path / "x")]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    config_file.write_text("[1, 2]")
    with pytest.raises(SchemaError, match="JSON object"):
        load_config_file(config_file, "synth")


def test_run_config_defaults_and_validation():
    config = RunConfig()
    assert config.embedding_dim == 1536
    assert (config.segment_length, config.overlap) == (2000, 400)
    assert (config.top_k, config.threshold) == (5, 0.8)
    assert config.summarization_budget == 100_000
    assert config.classification_budget == 50_000
    assert config.fallback_threshold == 0.5
    assert (config.n_pos, config.n_neg) == (15, 15)
    assert (config.n_seeds, config.seed_base) == (10, 0)
    config.validate()

    assert resolve_config({"seed": 3}, seed=None).seed == 3
    assert resolve_config({"seed": 3}, seed=5).seed == 5
    with pytest.raises(SchemaError):
        resolve_config(None, no_such_key=1)
    for bad in ({"overlap": 2000}, {"threshold": 1.5},
                {"split_fraction": 1.0}, {"llm_backend": "remote"},
                {"embedding_backend": "quantum"}, {"jobs": 0}):
        with pytest.raises(SchemaError):
            resolve_config(bad)


# --- the shared per-sample loop ----------------------------------------------

def test_classify_matches_per_visit_recompute(workspace):
    """Reports equal a loop that reruns the computational agent for every
    cohort sample and every prior visit, with no sharing between them."""
    from dataclasses import asdict

    from adam import cli
    from adam.agents.computational import run_computational_many
    from adam.agents.pipeline import healthy_reference, run_pipeline, stage_queries
    from adam.agents.report import render_report
    from adam.agents.steps import PROGRAMS
    from adam.dataset import SampleSet, draw_eval_cohort

    config = resolve_config(None, dataset=workspace["dataset"],
                            schema=workspace["schema"],
                            model=workspace["model"],
                            store=str(workspace["store"]),
                            embedding_dim=int(EMBED_DIM), seed=0)
    deployed, train_studies, test_studies = \
        cli._load_model_bundle(config.model)
    sample_set, _ = cli._load_sample_set(config)
    reference = healthy_reference(
        sample_set.restrict_to_studies(train_studies))
    test = sample_set.restrict_to_studies(test_studies)
    cohort = draw_eval_cohort(test, config.n_pos, config.n_neg, config.seed)
    searcher = cli._searcher(config)
    summarizer, classifier = cli._llm_backends(config)

    def computational(visit):
        return run_computational_many(
            SampleSet(cohort.clinical_names, cohort.taxon_names, (visit,)),
            deployed, reference)[0]

    dossier = json.loads((workspace["first"] / "dossier.json").read_text())
    entries = dossier["samples"]
    assert [e["sample_id"] for e in entries] == \
        [s.sample_id for s in cohort.samples]
    for sample, entry in zip(cohort.samples, entries):
        output = computational(sample)
        history = tuple(computational(prior)
                        for prior in test.prior_visits(sample))
        hits = {query: searcher.query_many([query])[0] for stage in PROGRAMS
                for query in stage_queries(output, stage)}
        report, transcripts = run_pipeline(output, history, hits, summarizer,
                                           classifier, config)
        written = workspace["first"] / entry["report_path"]
        assert written.read_text(encoding="utf-8") == render_report(report)
        assert entry["probability"] == output.probability
        assert entry["report"] == json.loads(json.dumps(asdict(report)))
        assert entry["prompt_tokens"] == \
            {t.stage: t.prompt_tokens for t in transcripts}


def test_train_and_classify_reproduce_an_evaluate_seed(workspace, tmp_path,
                                                       monkeypatch):
    """train --seed s deploys the GBDT that evaluate deploys for seed s, and
    classify --seed s scores that seed's adam row; rf and lr never fit or
    deploy it."""
    from adam import evaluation
    from adam.ensemble.gbdt import model_to_dict
    from adam.ensemble.metrics import accuracy, precision_recall_f1

    seed = "3"
    data = ["--dataset", workspace["dataset"], "--schema", workspace["schema"]]
    assert main(["train", "--out", str(tmp_path / "t"), "--seed", seed]
                + data) == 0
    model_path = str(tmp_path / "t" / "model.json")
    assert main(["classify", "--out", str(tmp_path / "c"), "--seed", seed,
                 "--model", model_path] + data) == 0

    deployed = []
    fit_seed = evaluation.fit_seed

    def recording(*args, **kwargs):
        fit = fit_seed(*args, **kwargs)
        deployed.append(fit.deployed)
        return fit

    monkeypatch.setattr(evaluation, "fit_seed", recording)
    evaluate = ["evaluate", "--seed-base", seed, "--seeds", "1"] + data
    assert main(evaluate + ["--out", str(tmp_path / "e"),
                            "--models", "gbdt,adam"]) == 0
    assert len(deployed) == 1
    bundle = json.loads((tmp_path / "t" / "model.json").read_text())
    assert bundle["model"] == json.loads(json.dumps(model_to_dict(deployed[0].model)))

    samples = json.loads((tmp_path / "c" / "dossier.json").read_text())["samples"]
    y = [entry["label"] for entry in samples]
    yhat = [float(entry["verdict"] == "Yes") for entry in samples]
    (row,) = read_trials_csv(tmp_path / "e" / "trials-adam.csv")
    assert row["seed"] == int(seed)
    assert (row["accuracy"], row["f1"]) == \
        (accuracy(y, yhat), precision_recall_f1(y, yhat)[2])

    def forbidden(*args, **kwargs):
        raise AssertionError("evaluate --models rf,lr fitted the tuned GBDT")

    monkeypatch.setattr(evaluation, "fit_tuned_gbdt", forbidden)
    deployed.clear()
    assert main(evaluate + ["--out", str(tmp_path / "rf-lr"),
                            "--models", "rf,lr"]) == 0
    assert deployed == [None], "evaluate --models rf,lr deployed a GBDT"


def test_evaluate_jobs_2_matches_jobs_1(workspace, tmp_path):
    args = ["evaluate", "--dataset", workspace["dataset"],
            "--schema", workspace["schema"], "--models", "gbdt,adam",
            "--seeds", "2", "--store", str(workspace["store"]),
            "--embedding-dim", EMBED_DIM, "--threshold", "0.2"]
    for jobs in ("1", "2"):
        assert main(args + ["--out", str(tmp_path / jobs),
                            "--jobs", jobs]) == 0
    for name in ("trials.csv", "trials-adam.csv", "trials-baseline-gbdt.csv",
                 "metrics.txt"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


# --- remote backends ------------------------------------------------------------

class _Reply:
    status_code = 200

    def __init__(self, doc):
        self.doc = doc

    def json(self):
        return self.doc


class _RemoteSession:
    """Answers both endpoints in process: embeddings are the mock embedder's
    vectors, summaries a fixed text and verdicts alternate Yes, No, ..."""

    def __init__(self, dim):
        from adam.embedding import OfflineHashEmbedder

        self.embedder = OfflineHashEmbedder(dim=dim)
        self.chat, self.embedding, self.verdicts = [], [], []
        self.keys = set()

    def post(self, url, json=None, headers=None, timeout=None):
        self.keys.add((url, headers["Authorization"]))
        if url == "http://embed.test":
            self.embedding.append(json)
            vectors = self.embedder.embed_many(json["input"]).tolist()
            return _Reply({"data": [{"embedding": v} for v in vectors]})
        self.chat.append(json)
        if "summarization agent" in json["messages"][0]["content"]:
            text = "Summary of the visit."
        else:
            self.verdicts.append(("Yes", "No")[len(self.verdicts) % 2])
            text = f"Prediction: {self.verdicts[-1]} - scripted"
        return _Reply({"choices": [{"message": {"content": text}}]})


def test_classify_with_remote_backends(workspace, tmp_path, monkeypatch):
    """The config's model names reach each remote request, with the fixed
    chat settings, and the dossier's verdicts are the endpoint's."""
    import requests

    corpus, store = tmp_path / "corpus.jsonl", tmp_path / "store"
    _write_corpus(corpus)
    assert main(["index", "--corpus", str(corpus), "--store", str(store),
                 "--embedding-dim", "8"]) == 0
    config_file = tmp_path / "models.json"
    config_file.write_text(json.dumps({"summarization_model": "sum-model",
                                       "classification_model": "cls-model",
                                       "embedding_model": "embed-model"}))
    session = _RemoteSession(8)
    monkeypatch.setattr(requests, "Session", lambda: session)
    monkeypatch.setenv("ADAM_LLM_API_KEY", "llm-key")
    monkeypatch.setenv("ADAM_EMBED_API_KEY", "embed-key")
    out = tmp_path / "c"
    assert main(["classify", "--dataset", workspace["dataset"],
                 "--schema", workspace["schema"], "--model", workspace["model"],
                 "--store", str(store), "--config", str(config_file),
                 "--n-pos", "2", "--n-neg", "2", "--out", str(out),
                 "--llm-backend", "remote", "--llm-url", "http://llm.test",
                 "--embedding-backend", "remote", "--embedding-url", "http://embed.test",
                 "--embedding-dim", "8", "--threshold", "0.1"]) == 0

    stages = ["summarization" if "summarization agent" in payload["messages"][0]["content"]
              else "classification" for payload in session.chat]
    assert stages == ["summarization", "classification"] * 4
    for stage, payload in zip(stages, session.chat):
        assert payload["model"] == {"summarization": "sum-model",
                                    "classification": "cls-model"}[stage]
        assert (payload["max_tokens"], payload["temperature"]) == (1024, 0)
    samples = json.loads((out / "dossier.json").read_text())["samples"]
    # One request holds the cohort's distinct step queries, in first-use
    # order: cohort order, summarization before classification.
    queries = [line.rsplit(" | hits: ", 1)[0].split(" | query: ", 1)[1]
               for entry in samples
               for line in entry["report"]["step_transcripts"]]
    assert len(queries) == 64
    assert [payload["input"] for payload in session.embedding] == [
        list(dict.fromkeys(queries))]
    assert {payload["model"] for payload in session.embedding} == {"embed-model"}
    assert session.keys == {("http://llm.test", "Bearer llm-key"),
                            ("http://embed.test", "Bearer embed-key")}
    assert [entry["verdict"] for entry in samples] == session.verdicts
    assert any("hits: 0" not in line for entry in samples
               for line in entry["report"]["step_transcripts"])


def test_cli_import_does_not_load_requests():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import adam
    src = str(Path(adam.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = "import sys, adam.cli; sys.exit(int('requests' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Modules that only train, classify, evaluate, compare and report run.
HEAVY_MODULES = ("adam.ensemble", "adam.attribution", "adam.agents",
                 "adam.stats", "adam.evaluation")


def _source_env() -> dict:
    """The environment, with this checkout's sources first on PYTHONPATH."""
    import os
    from pathlib import Path

    import adam
    src = str(Path(adam.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


def test_light_commands_do_not_load_the_ensemble(tmp_path):
    import subprocess
    import sys

    env = _source_env()
    # Runs argv, then prints which of the given heavy modules are loaded.
    code = ("import sys, adam.cli\n"
            "status = adam.cli.main({argv!r})\n"
            "print([m for m in {heavy!r} if m in sys.modules])\n"
            "sys.exit(status)\n")
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus)
    data = tmp_path / "data"
    trials = tmp_path / "trials.csv"
    trials.write_text("seed,model,accuracy,auc,f1\n0,adam,1,1,1\n1,adam,0.9,,0.8\n")
    commands = {
        "synth": ["synth", "--out", str(data)],
        "ingest": ["ingest", "--dataset", str(data / "synthetic.csv"),
                   "--schema", str(data / "synthetic.schema.json")],
        "index": ["index", "--corpus", str(corpus), "--store",
                  str(tmp_path / "store"), "--embedding-dim", EMBED_DIM,
                  "--verify"],
        "compare": ["compare", "--adam", str(trials), "--baseline", str(trials)],
    }
    # compare runs the statistics, but nothing that fits or explains a model.
    heavy = dict.fromkeys(commands, HEAVY_MODULES)
    heavy["compare"] = tuple(m for m in HEAVY_MODULES if m != "adam.stats")
    for name, argv in commands.items():
        run = subprocess.run(
            [sys.executable, "-c", code.format(argv=argv, heavy=heavy[name])],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, (name, run.stderr)
        assert run.stdout.splitlines()[-1] == "[]", name
    config_only = ("import sys, adam.config\n"
                   f"print([m for m in {HEAVY_MODULES!r} if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", config_only], env=env,
                         capture_output=True, text=True)
    assert run.stdout == "[]\n", run.stderr


# What every command loads, the eight modules that classify never runs,
# and the six that train never runs.
BASE_MODULES = {"adam", "adam.cli", "adam.config", "adam.errors"}
NOT_RUN_BY_CLASSIFY = {"adam.evaluation", "adam.comparison", "adam.stats",
                       "adam.ensemble.baselines", "adam.ensemble.metrics",
                       "adam.ensemble.tuning", "adam.chunker", "adam.http_retry"}
NOT_RUN_BY_TRAIN = {"adam.agents.llm", "adam.http_retry", "adam.agents.pipeline",
                    "adam.agents.report", "adam.agents.steps", "adam.comparison"}


def test_each_command_loads_only_the_modules_it_runs(workspace, tmp_path):
    import subprocess
    import sys

    # Makes the call in a fresh process, then prints the adam modules and
    # whether numpy, numpy.ma (whose first import costs 12-20 ms) and
    # statistics are loaded.
    code = ("import json, sys, adam.cli\n"
            "{call}\n"
            "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'adam'),\n"
            "                  'numpy' in sys.modules, 'numpy.ma' in sys.modules,\n"
            "                  'statistics' in sys.modules]))\n")
    classify = ["classify", "--dataset", workspace["dataset"],
                "--schema", workspace["schema"], "--model", workspace["model"],
                "--store", str(workspace["store"]), "--embedding-dim", EMBED_DIM,
                "--seed", "0", "--out", str(tmp_path / "classify")]
    calls = {
        "build_parser": "adam.cli.build_parser()",
        "compare": ["compare", "--adam", str(workspace["eval"] / "trials-adam.csv"),
                    "--baseline", str(workspace["eval"] / "trials-baseline-gbdt.csv")],
        "report": ["report", "--dossier", str(workspace["first"] / "dossier.json"),
                   "--out", str(tmp_path / "report")],
        "classify": classify,
        "ingest": ["ingest", "--dataset", workspace["dataset"], "--schema", workspace["schema"]],
        "train": ["train", "--dataset", workspace["dataset"], "--schema", workspace["schema"],
                  "--seed", "0", "--out", str(tmp_path / "train")],
        "train-tuned": ["train", "--dataset", workspace["dataset"],
                        "--schema", workspace["schema"], "--seed", "0", "--tuning-trials", "2",
                        "--out", str(tmp_path / "train-tuned")],
        "index": ["index", "--corpus", str(workspace["root"] / "corpus.jsonl"),
                  "--store", str(tmp_path / "store"), "--embedding-dim", EMBED_DIM, "--verify"],
        "evaluate": ["evaluate", "--dataset", workspace["dataset"],
                     "--schema", workspace["schema"], "--seeds", "1", "--models", "gbdt,rf,lr,adam",
                     "--out", str(tmp_path / "evaluate")],
    }
    loaded, masked, statistics = {}, {}, {}
    for name, call in calls.items():
        if isinstance(call, list):
            call = f"assert adam.cli.main({call!r}) == 0"
        run = subprocess.run([sys.executable, "-c", code.format(call=call)],
                             env=_source_env(), capture_output=True, text=True)
        assert run.returncode == 0, (name, run.stderr)
        modules, numpy, masked[name], statistics[name] = json.loads(
            run.stdout.splitlines()[-1])
        loaded[name] = (set(modules), numpy)
    assert not any(masked.values()), masked
    assert [name for name, loads in statistics.items() if loads] == ["ingest"]
    assert loaded["build_parser"] == (BASE_MODULES, False)
    assert loaded["compare"][0] == BASE_MODULES | {"adam.comparison", "adam.stats"}
    assert loaded["report"] == (BASE_MODULES | {"adam.agents", "adam.agents.report"},
                                False)
    modules, _ = loaded["classify"]
    assert not modules & NOT_RUN_BY_CLASSIFY
    assert modules == BASE_MODULES | {
        "adam.agents", "adam.agents.computational", "adam.agents.llm",
        "adam.agents.pipeline", "adam.agents.report", "adam.agents.steps",
        "adam.attribution", "adam.dataset", "adam.diversity",
        "adam.embedding", "adam.ensemble", "adam.ensemble.gbdt",
        "adam.ensemble.tree", "adam.vectorstore"}
    modules, _ = loaded["train"]
    assert not modules & NOT_RUN_BY_TRAIN
    assert modules == BASE_MODULES | {
        "adam.agents", "adam.agents.computational", "adam.attribution",
        "adam.dataset", "adam.diversity", "adam.ensemble", "adam.ensemble.baselines",
        "adam.ensemble.gbdt", "adam.ensemble.metrics", "adam.ensemble.tree",
        "adam.evaluation", "adam.stats"}
    assert loaded["train-tuned"][0] == modules | {"adam.ensemble.tuning"}
    assert "adam.ensemble.tuning" not in loaded["evaluate"][0]


# --- the process entry -----------------------------------------------------------

class _Stream:
    """A stdout or stderr stand-in that records its flushes."""

    def __init__(self, name, events, error=None):
        self.name, self.events, self.error = name, events, error

    def flush(self):
        self.events.append(("flush", self.name))
        if self.error is not None:
            raise self.error


def _run_events(monkeypatch, profile=None, stdout_error=None, stdout_closed=False):
    """What adam.cli.run does after a main that returns 3: each flush, and
    the exit it takes. A closed stdout is None, as Python sets it when
    descriptor 1 is closed at start-up."""
    import os
    import sys

    import adam.cli

    events = []
    monkeypatch.setattr(adam.cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(sys, "stdout", None if stdout_closed
                        else _Stream("stdout", events, stdout_error))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: profile)
    monkeypatch.delattr(sys, "monitoring", raising=False)

    def exiting(name):
        def exit(status):
            events.append((name, status))
            raise SystemExit(status)  # neither exit returns
        return exit

    monkeypatch.setattr(sys, "exit", exiting("sys.exit"))
    monkeypatch.setattr(os, "_exit", exiting("os._exit"))
    with pytest.raises(SystemExit):
        adam.cli.run()
    return events


def test_run_flushes_both_streams_after_main_and_ends_the_process_with_its_status(
        monkeypatch):
    assert _run_events(monkeypatch) == [
        "main", ("flush", "stdout"), ("flush", "stderr"), ("os._exit", 3)]


def test_run_exits_through_the_interpreter_under_a_profile_hook(monkeypatch):
    assert _run_events(monkeypatch, profile=lambda *args: None) == [
        "main", ("flush", "stdout"), ("flush", "stderr"), ("sys.exit", 3)]


def test_run_leaves_a_failed_flush_to_the_interpreter(monkeypatch):
    assert _run_events(monkeypatch, stdout_error=BrokenPipeError()) == [
        "main", ("flush", "stdout"), ("sys.exit", 3)]


def test_run_flushes_only_the_open_stream_when_stdout_is_closed(monkeypatch):
    assert _run_events(monkeypatch, stdout_closed=True) == [
        "main", ("flush", "stderr"), ("os._exit", 3)]


def test_python_m_cprofile_m_adam_prints_its_stats(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "data"
    run = subprocess.run([sys.executable, "-m", "cProfile", "-m", "adam", "synth",
                          "--seed", "1", "--out", str(out)], env=_source_env(),
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith(f"wrote {out / 'synthetic.csv'}\n")
    assert " function calls " in run.stdout and "Ordered by:" in run.stdout
    assert len(list(out.iterdir())) == 3


def test_python_m_adam_writes_what_main_writes(tmp_path, capsys):
    import subprocess
    import sys

    out = tmp_path / "data"
    argv = ["synth", "--seed", "1", "--out", str(out)]
    run = subprocess.run([sys.executable, "-m", "adam", *argv], env=_source_env(),
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    out.rename(tmp_path / "by-subprocess")
    assert main(argv) == 0
    assert capsys.readouterr().out == run.stdout
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written
    assert len(written) == 3


# --- the command-line surface ----------------------------------------------------

# Per subcommand and dest: (option strings, type, choices, action, default,
# required), copied from the hand-written parser the derived flags replaced.
PARSER_SURFACE = {
    'synth': {
        'config': (('--config',), None, None, '_StoreAction', None, False),
        'out': (('--out',), None, None, '_StoreAction', None, True),
        'seed': (('--seed',), 'int', None, '_StoreAction', None, False),
    },
    'ingest': {
        'config': (('--config',), None, None, '_StoreAction', None, False),
        'out': (('--out',), None, None, '_StoreAction', None, False),
        'dataset': (('--dataset',), None, None, '_StoreAction', None, False),
        'schema': (('--schema',), None, None, '_StoreAction', None, False),
    },
    'index': {
        'config': (('--config',), None, None, '_StoreAction', None, False),
        'corpus': (('--corpus',), None, None, '_StoreAction', None, False),
        'store': (('--store',), None, None, '_StoreAction', None, False),
        'embedding_backend': (('--embedding-backend',), None, ('mock', 'remote'), '_StoreAction', None, False),
        'embedding_dim': (('--embedding-dim',), 'int', None, '_StoreAction', None, False),
        'embedding_url': (('--embedding-url',), None, None, '_StoreAction', None, False),
        'segment_length': (('--segment-length',), 'int', None, '_StoreAction', None, False),
        'overlap': (('--overlap',), 'int', None, '_StoreAction', None, False),
        'verify': (('--verify',), None, None, '_StoreTrueAction', False, False),
    },
    'train': {
        'config': (('--config',), None, None, '_StoreAction', None, False),
        'out': (('--out',), None, None, '_StoreAction', None, True),
        'dataset': (('--dataset',), None, None, '_StoreAction', None, False),
        'schema': (('--schema',), None, None, '_StoreAction', None, False),
        'model': (('--model',), None, None, '_StoreAction', None, False),
        'seed': (('--seed',), 'int', None, '_StoreAction', None, False),
        'split_fraction': (('--split-fraction',), 'float', None, '_StoreAction', None, False),
        'n_features': (('--n-features',), 'int', None, '_StoreAction', None, False),
        'tuning_trials': (('--tuning-trials',), 'int', None, '_StoreAction', None, False),
        'tuning_folds': (('--tuning-folds',), 'int', None, '_StoreAction', None, False),
    },
    'classify': {
        'config': (('--config',), None, None, '_StoreAction', None, False),
        'out': (('--out',), None, None, '_StoreAction', None, True),
        'dataset': (('--dataset',), None, None, '_StoreAction', None, False),
        'schema': (('--schema',), None, None, '_StoreAction', None, False),
        'model': (('--model',), None, None, '_StoreAction', None, False),
        'store': (('--store',), None, None, '_StoreAction', None, False),
        'seed': (('--seed',), 'int', None, '_StoreAction', None, False),
        'n_pos': (('--n-pos',), 'int', None, '_StoreAction', None, False),
        'n_neg': (('--n-neg',), 'int', None, '_StoreAction', None, False),
        'llm_backend': (('--llm-backend',), None, ('mock', 'remote'), '_StoreAction', None, False),
        'llm_url': (('--llm-url',), None, None, '_StoreAction', None, False),
        'embedding_backend': (('--embedding-backend',), None, ('mock', 'remote'), '_StoreAction', None, False),
        'embedding_dim': (('--embedding-dim',), 'int', None, '_StoreAction', None, False),
        'embedding_url': (('--embedding-url',), None, None, '_StoreAction', None, False),
        'top_k': (('--top-k',), 'int', None, '_StoreAction', None, False),
        'threshold': (('--threshold',), 'float', None, '_StoreAction', None, False),
        'summarization_budget': (('--summarization-budget',), 'int', None, '_StoreAction', None, False),
        'classification_budget': (('--classification-budget',), 'int', None, '_StoreAction', None, False),
        'fallback_threshold': (('--fallback-threshold',), 'float', None, '_StoreAction', None, False),
    },
    'evaluate': {
        'config': (('--config',), None, None, '_StoreAction', None, False),
        'out': (('--out',), None, None, '_StoreAction', None, True),
        'dataset': (('--dataset',), None, None, '_StoreAction', None, False),
        'schema': (('--schema',), None, None, '_StoreAction', None, False),
        'seeds': (('--seeds',), 'int', None, '_StoreAction', None, False),
        'seed_base': (('--seed-base',), 'int', None, '_StoreAction', None, False),
        'models': (('--models',), None, None, '_StoreAction', 'gbdt,rf,lr,adam', False),
        'split_fraction': (('--split-fraction',), 'float', None, '_StoreAction', None, False),
        'n_pos': (('--n-pos',), 'int', None, '_StoreAction', None, False),
        'n_neg': (('--n-neg',), 'int', None, '_StoreAction', None, False),
        'n_features': (('--n-features',), 'int', None, '_StoreAction', None, False),
        'tuning_trials': (('--tuning-trials',), 'int', None, '_StoreAction', None, False),
        'tuning_folds': (('--tuning-folds',), 'int', None, '_StoreAction', None, False),
        'fallback_threshold': (('--fallback-threshold',), 'float', None, '_StoreAction', None, False),
        'tolerate_failures': (('--tolerate-failures',), None, None, '_StoreTrueAction', None, False),
        'jobs': (('--jobs',), 'int', None, '_StoreAction', None, False),
        'llm_backend': (('--llm-backend',), None, ('mock', 'remote'), '_StoreAction', None, False),
        'llm_url': (('--llm-url',), None, None, '_StoreAction', None, False),
        'store': (('--store',), None, None, '_StoreAction', None, False),
        'embedding_backend': (('--embedding-backend',), None, ('mock', 'remote'), '_StoreAction', None, False),
        'embedding_dim': (('--embedding-dim',), 'int', None, '_StoreAction', None, False),
        'embedding_url': (('--embedding-url',), None, None, '_StoreAction', None, False),
        'top_k': (('--top-k',), 'int', None, '_StoreAction', None, False),
        'threshold': (('--threshold',), 'float', None, '_StoreAction', None, False),
    },
    'compare': {
        'config': (('--config',), None, None, '_StoreAction', None, False),
        'out': (('--out',), None, None, '_StoreAction', None, False),
        'adam': (('--adam',), None, None, '_StoreAction', None, True),
        'baseline': (('--baseline',), None, None, '_StoreAction', None, True),
    },
    'report': {
        'config': (('--config',), None, None, '_StoreAction', None, False),
        'out': (('--out',), None, None, '_StoreAction', None, True),
        'dossier': (('--dossier',), None, None, '_StoreAction', None, True),
    },
}


def test_parser_surface_unchanged():
    import argparse

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {a.dest: (tuple(a.option_strings),
                        a.type.__name__ if a.type else None, a.choices,
                        type(a).__name__, a.default, a.required)
               for a in parser._actions
               if not isinstance(a, argparse._HelpAction)}
        for name, parser in sub.choices.items()}
    assert surface == PARSER_SURFACE


# --- config-file value types -----------------------------------------------------

@pytest.mark.parametrize("key, value", [
    ("top_k", "5"),
    ("jobs", 2.5),
    ("seed", True),
    ("seed", None),
    ("tolerate_failures", "no"),
    ("tolerate_failures", 1),
    ("threshold", "0.5"),
    ("threshold", False),
    ("dataset", 3),
    ("embedding_model", None),
    ("embedding_backend", ["mock"]),
])
def test_config_file_rejects_wrong_types(tmp_path, capsys, key, value):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({key: value}))
    with pytest.raises(SchemaError) as err:
        load_config_file(config_file, "synth")
    assert str(err.value).startswith(f"{config_file}: {key!r} must be ")
    with pytest.raises(SchemaError, match=key):
        resolve_config({key: value})
    assert main(["synth", "--config", str(config_file),
                 "--out", str(tmp_path / "x")]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: {config_file}: {key!r} must be ")


@pytest.mark.parametrize("dim", ["1000000000000000000000000000000", "4294967296"])
def test_index_rejects_an_embedding_dim_past_the_bound(tmp_path, capsys, corpus_path, dim):
    """A dimension the 32-bit .advec header and gram entries cannot hold
    is one error line naming the field, not an OverflowError."""
    store = tmp_path / "store"
    assert main(["index", "--corpus", str(corpus_path), "--store", str(store),
                 "--embedding-dim", dim]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ") and "'embedding_dim'" in err_lines[0]
    assert not store.exists()


def test_config_file_accepts_int_for_float_and_null_for_optional(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"threshold": 1, "dataset": None}))
    config = resolve_config(load_config_file(config_file, "synth"))
    assert config.threshold == 1
    assert config.dataset is None


def _files(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_index_and_evaluate_replay_from_their_resolved_config(workspace, tmp_path):
    store = tmp_path / "store"
    assert main(["index", "--config", str(workspace["store"] / RESOLVED_CONFIG_NAME),
                 "--store", str(store), "--verify"]) == 0
    first, again = _files(workspace["store"]), _files(store)
    config = Path(RESOLVED_CONFIG_NAME)
    assert ({k: v for k, v in first.items() if k != config}
            == {k: v for k, v in again.items() if k != config})
    assert (json.loads(again.pop(config)) ==
            {**json.loads(first.pop(config)), "store": str(store)})
    assert first and first == again

    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(workspace["eval"] / RESOLVED_CONFIG_NAME),
                 "--models", "gbdt,adam", "--out", str(out)]) == 0
    assert _files(out) == _files(workspace["eval"])


def test_config_of_another_command_is_refused(workspace, tmp_path, capsys):
    config_file = workspace["eval"] / RESOLVED_CONFIG_NAME
    assert main(["train", "--config", str(config_file),
                 "--out", str(tmp_path / "train")]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == [f"error: {config_file}: the configuration of the 'evaluate' "
                         "command cannot configure 'train'"]
    assert not (tmp_path / "train").exists()


# --- evaluate applies the agent settings of the config ------------------------------

def test_evaluate_applies_config_budgets(workspace, tmp_path, capsys):
    config_file = tmp_path / "budget.json"
    config_file.write_text(json.dumps({"summarization_budget": 1,
                                       "classification_budget": 1}))
    data = ["--dataset", workspace["dataset"], "--schema", workspace["schema"],
            "--config", str(config_file)]
    assert main(["classify", "--model", workspace["model"], "--seed", "0",
                 "--out", str(tmp_path / "c")] + data) == 1
    classify_err = capsys.readouterr().err.splitlines()
    assert len(classify_err) == 1
    assert classify_err[0].startswith("error: summarization prompt needs ")

    evaluate = ["evaluate", "--models", "adam", "--seeds", "1"] + data
    assert main(evaluate + ["--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err.splitlines() == classify_err

    out = tmp_path / "tolerant"
    assert main(evaluate + ["--out", str(out), "--tolerate-failures"]) == 0
    failures = (out / "failures.txt").read_text().splitlines()
    assert failures == [
        f"seed 0: {classify_err[0].removeprefix('error: ')}"]
    assert (out / "trials.csv").read_text() == "seed,model,accuracy,auc,f1\n"


# --- malformed dossiers ------------------------------------------------------------

REPORT_KEYS = ("sample_id", "verdict", "probability", "sections", "summary",
               "step_transcripts")


def _drop(key):
    return lambda entry: entry["report"].pop(key)


def _set(key, value):
    return lambda entry: entry["report"].update({key: value})


@pytest.mark.parametrize("edit", [
    pytest.param(lambda entry: entry.pop("report"), id="no-report"),
    pytest.param(lambda entry: entry.update(report=[1]), id="report-list"),
    *(pytest.param(_drop(key), id=f"no-{key}") for key in REPORT_KEYS),
    pytest.param(_set("sample_id", 7), id="sample_id-int"),
    *(pytest.param(_set("sample_id", name), id=f"sample_id-{label}")
      for label, name in (("escaping", "../escaped"), ("dotdot", ".."), ("dot", "."),
                          ("empty", ""), ("slash", "a/b"), ("backslash", "a\\b"),
                          ("nul", "a\0b"))),
    pytest.param(_set("verdict", "Maybe"), id="verdict-maybe"),
    pytest.param(_set("probability", "0.5"), id="probability-str"),
    pytest.param(_set("probability", True), id="probability-bool"),
    pytest.param(_set("sections", "x"), id="sections-str"),
    pytest.param(_set("sections", [["title"]]), id="section-single"),
    pytest.param(_set("sections", [["title", 3]]), id="section-body-int"),
    pytest.param(_set("summary", None), id="summary-null"),
    pytest.param(_set("step_transcripts", [1]), id="transcript-int"),
])
def test_report_rejects_malformed_dossier(workspace, tmp_path, capsys, edit):
    doc = json.loads((workspace["first"] / "dossier.json").read_text())
    edit(doc["samples"][1])
    bad = tmp_path / "dossier.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as err:
        read_dossier(bad)
    assert str(err.value).startswith(f"{bad}: sample 1: ")
    out = tmp_path / "r"
    assert main(["report", "--dossier", str(bad), "--out", str(out)]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: {bad}: sample 1: ")
    assert [p.name for p in tmp_path.iterdir()] == ["dossier.json"]


@pytest.mark.parametrize("samples", [{"a": 1}, [3]])
def test_report_rejects_malformed_samples(tmp_path, samples):
    bad = tmp_path / "dossier.json"
    bad.write_text(json.dumps({"format": "adam-dossier", "samples": samples}))
    with pytest.raises(FormatError, match=str(bad)):
        read_dossier(bad)
