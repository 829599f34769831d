"""Seeded byte-level fuzzing of every reader of outside input, through
``cli.main`` in process.

Each input a user hands the CLI (dataset CSV, schema, corpus, model
bundle, ``.advec`` store file, the store's resolved-config.json, dossier,
trials CSV and config file) is mutated and fed to the command that reads
it. Whatever the bytes, the command must exit 0 or 1, print exactly one
``error:`` line when it exits 1, and let no exception escape.

Run as a script for a longer campaign::

    PYTHONPATH=src python tests/test_fuzz_inputs.py --mutations 200
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import pytest

from adam.cli import main

EMBED_DIM = "64"
# b"1" + 309 zeros is an integer past the float range; 4,301 digits pass
# Python's limit for converting an integer string.
ODD_NUMBERS = (b"1e309", b"-1e309", b"NaN", b"Infinity", b"18446744073709551616",
               b"-0", b"1_0", b"1" + b"0" * 309, b"1" * 4301)
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _run(argv) -> tuple[int, str]:
    """main(argv) with stdout dropped: (exit status, stderr)."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        status = main([str(arg) for arg in argv])
    return status, stderr.getvalue()


def build_workspace(root: Path) -> dict:
    """Every input the fuzzer mutates, written by the commands that make them."""
    root.mkdir(parents=True, exist_ok=True)
    data = root / "data"
    csv_path, schema = data / "synthetic.csv", data / "synthetic.schema.json"
    corpus = root / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(doc) + "\n" for doc in (
        {"publication_id": "PUB0001", "title": "Microbial diversity in dementia",
         "text": "Shannon diversity differs between groups. " * 30,
         "keywords": ["alzheimer", "diversity"]},
        {"publication_id": "PUB0002", "title": "Gut flora and immune aging",
         "text": "Commensal bacteria modulate immune senescence. " * 40,
         "keywords": ["gut", "microbiome"]})), encoding="utf-8")
    config = root / "config.json"
    config.write_text(json.dumps({"dataset": str(csv_path), "schema": str(schema),
                                  "seed": 3, "threshold": 0.4}), encoding="utf-8")
    dataset = ["--dataset", csv_path, "--schema", schema]
    small = ["--n-pos", "2", "--n-neg", "2"]
    for argv in (["synth", "--out", data],
                 ["index", "--corpus", corpus, "--store", root / "store",
                  "--embedding-dim", EMBED_DIM],
                 ["train", "--out", root / "train", *dataset],
                 ["classify", "--out", root / "classify", "--model",
                  root / "train" / "model.json", *dataset, *small],
                 ["evaluate", "--out", root / "eval", "--seeds", "3",
                  "--models", "gbdt", *dataset]):
        status, stderr = _run(argv)
        assert status == 0, (argv[0], stderr)
    advec = sorted((root / "store").glob("*.advec"))[0]
    trials = root / "eval" / "trials-baseline-gbdt.csv"
    # input -> (file to mutate, the argv that reads the mutated copy at {input}
    # and writes under {run})
    return {
        "dataset": (csv_path, ["ingest", "--dataset", "{input}", "--schema", schema]),
        "schema": (schema, ["ingest", "--dataset", csv_path, "--schema", "{input}"]),
        "corpus": (corpus, ["index", "--corpus", "{input}", "--store", "{run}/store",
                            "--embedding-dim", EMBED_DIM]),
        "model": (root / "train" / "model.json",
                  ["classify", "--out", "{run}/out", "--model", "{input}", *dataset,
                   *small]),
        "advec": (advec, ["index", "--store", "{run}", "--embedding-dim", EMBED_DIM]),
        "store-config": (root / "store" / "resolved-config.json",
                         ["ingest", "--config", "{input}", *dataset]),
        "dossier": (root / "classify" / "dossier.json",
                    ["report", "--dossier", "{input}", "--out", "{run}/out"]),
        "trials": (trials, ["compare", "--adam", "{input}", "--baseline", trials]),
        "config": (config, ["ingest", "--config", "{input}"]),
    }


def _swap_json_values(data: bytes, rng: random.Random) -> bytes | None:
    """Two leaf values of the document (or of one JSON line) swapped."""
    lines = data.split(b"\n")
    target = rng.randrange(len(lines)) if len(lines) > 2 else None
    try:
        doc = json.loads(lines[target] if target is not None else data)
    except ValueError:
        return None
    leaves = []

    def walk(node):
        children = (node.items() if isinstance(node, dict) else
                    enumerate(node) if isinstance(node, list) else ())
        for key, value in children:
            if isinstance(value, (dict, list)):
                walk(value)
            else:
                leaves.append((node, key))

    walk(doc)
    if len(leaves) < 2:
        return None
    (a, i), (b, j) = rng.sample(leaves, 2)
    a[i], b[j] = b[j], a[i]
    text = json.dumps(doc).encode()
    if target is None:
        return text
    lines[target] = text
    return b"\n".join(lines)


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One seeded mutation: truncation, a bit flip, an insert, a delete, a
    duplicated slice, two swapped lines, an odd number token or two
    swapped JSON values."""
    kind = rng.choice(("truncate", "flip", "insert", "delete", "duplicate",
                       "swap-lines", "odd-number", "swap-json"))
    i = rng.randrange(len(data))
    j = min(len(data), i + rng.randint(1, 64))
    if kind == "truncate":
        return data[:i]
    if kind == "insert":
        return data[:i] + rng.choice((b"\x00", b"\xff", b'"', b",", b"\n", b"}", b"9")) + data[i:]
    if kind == "delete":
        return data[:i] + data[j:]
    if kind == "duplicate":
        return data[:j] + data[i:j] + data[j:]
    if kind == "swap-lines":
        lines = data.split(b"\n")
        a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[a], lines[b] = lines[b], lines[a]
        return b"\n".join(lines)
    if kind == "odd-number":
        numbers = list(NUMBER.finditer(data))
        if numbers:
            match = rng.choice(numbers)
            return data[:match.start()] + rng.choice(ODD_NUMBERS) + data[match.end():]
    if kind == "swap-json":
        swapped = _swap_json_values(data, rng)
        if swapped is not None:
            return swapped
    flipped = bytearray(data)
    flipped[i] ^= 1 << rng.randrange(8)
    return bytes(flipped)


def fuzz(workspace: dict, name: str, mutations: int, work: Path) -> list[str]:
    """Runs the input's reader on each mutation; the contract breaches found."""
    original, template = workspace[name]
    data = original.read_bytes()
    breaches = []
    for index in range(mutations):
        run = work / f"{name}-{index}"
        if name == "advec":
            shutil.copytree(original.parent, run)
        else:
            run.mkdir(parents=True)
        target = run / original.name
        target.write_bytes(mutate(data, random.Random(f"{name}:{index}")))
        argv = [str(arg).format(input=target, run=run) for arg in template]
        where = f"{name} mutation {index}"
        try:
            status, stderr = _run(argv)
        except Exception:  # any escape breaks the contract
            breaches.append(f"{where}: exception escaped main\n{traceback.format_exc()}")
            continue
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        if status not in (0, 1):
            breaches.append(f"{where}: exit status {status}")
        elif status == 1 and len(errors) != 1:
            breaches.append(f"{where}: exit 1 with {len(errors)} error lines: {stderr!r}")
        shutil.rmtree(run)
    return breaches


INPUTS = ("dataset", "schema", "corpus", "model", "advec", "store-config",
          "dossier", "trials", "config")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return build_workspace(tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize("name", INPUTS)
def test_mutated_input_exits_0_or_1_with_one_error_line(workspace, name, tmp_path):
    assert fuzz(workspace, name, 10, tmp_path) == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mutations", type=int, default=200,
                        help="mutations per input (default 200)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        workspace = build_workspace(root / "workspace")
        found = []
        for name in INPUTS:
            breaches = fuzz(workspace, name, args.mutations, root / "runs")
            print(f"{name}: {args.mutations} mutations, {len(breaches)} breach(es)")
            found.extend(breaches)
    for breach in found:
        print(breach)
    sys.exit(1 if found else 0)
