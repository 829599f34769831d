"""Every file a command writes goes through ``errors.replacing``: a rerun
that fails while writing leaves each artifact either as the earlier run
left it or complete, and never a ``.tmp`` file."""

import ast
import errno
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import adam
from adam.cli import main
from adam.errors import json_text, replacing, write_text

SRC = Path(adam.__file__).resolve().parent


def _files(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


# ---------------------------------------------------------------------------
# the helper

def test_replacing_writes_the_whole_file_or_nothing(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    write_text(target, "first\r\nline\n")
    assert target.read_bytes() == b"first\r\nline\n"
    with pytest.raises(KeyError):
        with replacing(target) as fh:
            fh.write("second")
            raise KeyError("stop")
    with replacing(target, binary=True) as fh:
        fh.write(b"\x00bytes")
        assert not target.read_bytes().startswith(b"\x00")
    assert _files(tmp_path) == {Path("a/b/out.txt"): b"\x00bytes"}
    assert json_text({"b": [1], "a": "é"}) == '{\n  "a": "\\u00e9",\n  "b": [\n    1\n  ]\n}\n'


def test_a_failed_write_names_the_target(tmp_path):
    target = tmp_path / "model.json"
    write_text(target, "good\n")
    with pytest.raises(OSError) as caught:
        with replacing(target) as fh:
            fh.write("partial")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), f"{target}.tmp")
    assert str(caught.value) == f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{target}'"
    # A directory where the parent should be: the error still names the file.
    with pytest.raises(OSError, match=re.escape(f"'{target / 'x'}'") + "$"):
        write_text(target / "x", "text")
    assert _files(tmp_path) == {Path("model.json"): b"good\n"}


# ---------------------------------------------------------------------------
# no second write path

def _write_calls(tree):
    """(line, what) for each call under tree that writes or renames a file:
    open with a mode that may write, the Path methods write_text and
    write_bytes, os.replace and os.rename. errors.write_text, called by
    its bare name, writes through the helper."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "open":
            modes = call.args[1 if isinstance(func, ast.Name) else 0:]
            modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                yield call.lineno, "open"
        elif name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            yield call.lineno, name
        elif (name in ("replace", "rename") and isinstance(func, ast.Attribute)
              and getattr(func.value, "id", None) == "os"):
            yield call.lineno, f"os.{name}"


def test_every_write_goes_through_the_one_helper():
    helper, found = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, *call) for call in _write_calls(tree)]
        helper += [(path.name, *call) for node in ast.walk(tree)
                   if path.name == "errors.py" and isinstance(node, ast.FunctionDef)
                   and node.name == "replacing" for call in _write_calls(node)]
    # The detector sees the helper's own opens and rename, and nothing else.
    assert {what for _, _, what in helper} == {"open", "os.replace"}
    assert sorted(found) == sorted(helper)


# ---------------------------------------------------------------------------
# commands

def test_evaluate_removes_a_stale_failures_txt(dataset_paths, tmp_path):
    dataset, schema = map(str, dataset_paths)
    out = tmp_path / "eval"
    base = ["evaluate", "--dataset", dataset, "--schema", schema, "--seeds", "2",
            "--out", str(out)]
    assert main(base + ["--models", "gbdt,rf"]) == 0
    rf = (out / "trials-baseline-rf.csv").read_bytes()
    assert main(base + ["--models", "gbdt", "--n-pos", "200", "--tolerate-failures"]) == 0
    assert (out / "failures.txt").read_text().startswith("seed 0: need 200 positive")
    assert main(base + ["--models", "gbdt"]) == 0
    assert not (out / "failures.txt").exists()
    assert len((out / "trials.csv").read_text().splitlines()) == 3
    # A model outside the run keeps its trial file for compare.
    assert (out / "trials-baseline-rf.csv").read_bytes() == rf


def test_evaluate_rewrites_the_trial_file_of_a_model_with_no_successful_seed(
        dataset_paths, tmp_path, capsys):
    dataset, schema = map(str, dataset_paths)
    out = tmp_path / "eval"
    base = ["evaluate", "--dataset", dataset, "--schema", schema, "--seeds", "2",
            "--out", str(out)]
    assert main(base + ["--models", "gbdt,rf"]) == 0
    rf = (out / "trials-baseline-rf.csv").read_bytes()
    assert main(base + ["--models", "gbdt", "--n-pos", "200", "--tolerate-failures"]) == 0
    gbdt = out / "trials-baseline-gbdt.csv"
    assert gbdt.read_text() == "seed,model,accuracy,auc,f1\n"
    capsys.readouterr()
    assert main(["compare", "--adam", str(gbdt), "--baseline", str(gbdt)]) == 1
    assert capsys.readouterr().err == f"error: {gbdt}: no trial rows\n"
    # A model outside the run keeps its trial file for compare.
    assert (out / "trials-baseline-rf.csv").read_bytes() == rf


def _child_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    path = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONDONTWRITEBYTECODE": "1"}


# Runs adam's main with argv[2:] in a process whose files may not grow
# past argv[1] bytes; Python ignores SIGXFSZ, so a longer write fails
# with EFBIG.
_UNDER_FSIZE = ("import resource, sys\n"
                "from adam.cli import main\n"
                "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
                "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))\n"
                "sys.exit(main(sys.argv[2:]))\n")


def _run_under_fsize(limit, argv):
    pytest.importorskip("resource")
    run = subprocess.run([sys.executable, "-c", _UNDER_FSIZE, str(limit), *argv],
                         env=_child_env(), capture_output=True, text=True)
    return run.returncode, run.stderr.splitlines()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """What the reruns read: two datasets, a corpus, a model, two dossiers
    and four single-model trial files."""
    root = tmp_path_factory.mktemp("inputs")
    data = {}
    for seed in (0, 1):
        assert main(["synth", "--out", str(root / f"data{seed}"), "--seed", str(seed)]) == 0
        data[seed] = ["--dataset", str(root / f"data{seed}" / "synthetic.csv"),
                      "--schema", str(root / f"data{seed}" / "synthetic.schema.json")]
    corpus = root / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"publication_id": f"PUB{i}", "title": title, "text": text * 40,
                    "keywords": [keyword]}) + "\n"
        for i, (title, text, keyword) in enumerate([
            ("Diversity in dementia", "Shannon diversity differs. ", "diversity"),
            ("Gut flora", "Commensal bacteria modulate aging. ", "gut")])))
    model = root / "train" / "model.json"
    assert main(["train", *data[0], "--seed", "0", "--out", str(root / "train")]) == 0
    for seed in (0, 1):
        assert main(["classify", *data[0], "--model", str(model), "--n-pos", "2",
                     "--n-neg", "2", "--seed", str(seed),
                     "--out", str(root / f"classify{seed}")]) == 0
    trials = {}
    for name, f1s in {"a": (0.5, 0.7, 0.9), "b": (0.6, 0.6, 0.8),
                      "c": (0.4, 0.5, 0.6), "d": (0.9, 0.8, 0.85)}.items():
        trials[name] = root / f"trials-{name}.csv"
        trials[name].write_text("seed,model,accuracy,auc,f1\n" + "".join(
            f"{seed},{name},0.5,0.5,{f1}\n" for seed, f1 in enumerate(f1s)))
    return {"data": data, "corpus": str(corpus), "model": str(model), "root": root,
            "trials": {name: str(path) for name, path in trials.items()}}


def _cases(inputs):
    """For each command, (the first run, a rerun that writes other bytes),
    each a function of the directory both write into."""
    data, trials, root = inputs["data"], inputs["trials"], inputs["root"]
    cohort = ["--model", inputs["model"], "--n-pos", "2", "--n-neg", "2"]
    return {
        "synth": (lambda w: ["synth", "--out", w, "--seed", "0"],
                  lambda w: ["synth", "--out", w, "--seed", "1"]),
        "ingest": (lambda w: ["ingest", *data[0], "--out", w],
                   lambda w: ["ingest", *data[1], "--out", w]),
        "index": (lambda w: ["index", "--corpus", inputs["corpus"], "--store", w,
                             "--embedding-dim", "32"],
                  lambda w: ["index", "--corpus", inputs["corpus"], "--store", w,
                             "--embedding-dim", "16", "--verify"]),
        "train": (lambda w: ["train", *data[0], "--seed", "1", "--out", w],
                  lambda w: ["train", *data[0], "--seed", "2", "--out", w]),
        "classify": (lambda w: ["classify", *data[0], *cohort, "--seed", "2", "--out", w],
                     lambda w: ["classify", *data[0], *cohort, "--seed", "3", "--out", w]),
        "evaluate": (lambda w: ["evaluate", *data[0], "--seeds", "3", "--models", "gbdt,adam",
                                "--out", w],
                     lambda w: ["evaluate", *data[0], "--seeds", "3", "--seed-base", "3",
                                "--models", "gbdt,adam", "--out", w]),
        "compare": (lambda w: ["compare", "--adam", trials["a"], "--baseline", trials["b"],
                               "--out", w],
                    lambda w: ["compare", "--adam", trials["c"], "--baseline", trials["d"],
                               "--out", w]),
        "report": (lambda w: ["report", "--dossier", str(root / "classify0" / "dossier.json"),
                              "--out", w],
                   lambda w: ["report", "--dossier", str(root / "classify1" / "dossier.json"),
                              "--out", w]),
    }


def _assert_kept_or_complete(work, before, after, hit, code, status, err):
    """The rerun exited 1 with one error line, of errno code and naming hit;
    every file holds the earlier run's bytes or the rerun's complete bytes,
    hit the earlier run's; no earlier file is gone and no .tmp file is left."""
    assert status == 1
    assert err == [f"error: [Errno {code}] {os.strerror(code)}: '{work / hit}'"]
    now = _files(work)
    assert set(before) <= set(now) <= set(before) | set(after)
    assert not [p for p in now if p.name.endswith(".tmp")]
    for rel, data in now.items():
        assert data in (before.get(rel), after.get(rel)), rel
    assert now.get(hit) == before.get(hit)


@pytest.mark.parametrize("command", ["synth", "ingest", "index", "train", "classify",
                                     "evaluate", "compare", "report"])
def test_a_failed_rerun_keeps_the_last_good_run(inputs, command, tmp_path, monkeypatch,
                                                 capsys):
    first, rerun = _cases(inputs)[command]
    earlier = tmp_path / "earlier"
    assert main(first(str(earlier))) == 0
    before = _files(earlier)

    # A clean rerun into a copy gives the rerun's bytes and, from the
    # renames, the order its files are written in.
    written, real_replace = [], os.replace

    def recording_replace(src, dst):
        written.append(Path(dst).relative_to(clean))
        real_replace(src, dst)

    clean = tmp_path / "clean"
    shutil.copytree(earlier, clean)
    monkeypatch.setattr(os, "replace", recording_replace)
    assert main(rerun(str(clean))) == 0
    monkeypatch.undo()
    after = {rel: data for rel, data in _files(clean).items() if rel in written}
    # Each file the rerun writes is renamed into place once, and at least
    # one of them gets other bytes than the earlier run's.
    changed = {rel for rel, data in _files(clean).items() if before.get(rel) != data}
    assert changed and changed <= set(after) and len(after) == len(written)

    # os.replace fails on the k-th file.
    for k, hit in enumerate(written):
        work = tmp_path / f"replace-{k}"
        shutil.copytree(earlier, work)
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == k + 1:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_replace(src, dst)

        capsys.readouterr()
        monkeypatch.setattr(os, "replace", failing_replace)
        status = main(rerun(str(work)))
        monkeypatch.undo()
        _assert_kept_or_complete(work, before, after, hit, errno.EIO, status,
                                 capsys.readouterr().err.splitlines())
        if command == "evaluate":
            # compare still reads every seed of the earlier adam trials.
            assert main(["compare", "--adam", str(work / "trials-adam.csv"),
                         "--baseline", str(work / "trials-baseline-gbdt.csv")]) == 0
            assert "n_adam: 3\n" in capsys.readouterr().out

    # The file size limit stops the first file that is larger than every
    # file written before it.
    largest = 0
    for k, hit in enumerate(written):
        if len(after[hit]) > largest:
            work = tmp_path / f"fsize-{k}"
            shutil.copytree(earlier, work)
            status, err = _run_under_fsize(largest, rerun(str(work)))
            _assert_kept_or_complete(work, before, after, hit, errno.EFBIG, status, err)
            largest = len(after[hit])
