"""The three benchmark workloads: how each sets up, what each op runs,
and the check that decides whether an op's outputs are correct.

Every op is one fresh ``python -m adam <subcommand>`` process run from its
own directory ``<setup>/ops/<name>/`` and writing only to ``out/`` there.
Inputs are referenced by the same relative paths from every op directory,
so ops with equal arguments must produce byte-identical ``out/`` trees,
``resolved-config.json`` included.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import corpus

# Paths of the set-up products, as seen from an op directory.
DATA = "../../data/synthetic.csv"
SCHEMA = "../../data/synthetic.schema.json"
CORPUS = "../../corpus.jsonl"
STORE = "../../store"
MODEL = "../../model/model.json"

PROTOCOL_MODELS = ("baseline-gbdt", "baseline-rf", "baseline-lr", "adam")
SEEDS_PER_OP = 2
COHORT_SIZE = 30
# Retrieval threshold for cohort-screen. At the 0.8 default no step query
# of the mock embedder reaches any passage. At 0.36, on the corpora of seeds
# 1-3, 8-35% of step queries get no hit and 33-61% fill top-k (README.md).
THRESHOLD = 0.36
TOP_K = 5
FALLBACK_THRESHOLD = 0.5
ORACLE_QUERIES_PER_OP = 8
ADVEC_MAGIC = b"ADAMVEC1"


class CheckFailed(Exception):
    """An op's outputs are wrong."""


def adam(*args: str) -> list[str]:
    return [sys.executable, "-m", "adam", *args]


def run_setup_command(argv: list[str], cwd: Path, env: dict) -> None:
    """Run one set-up command; a failure aborts the benchmark."""
    result = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, timeout=60)
    if result.returncode != 0:
        raise RuntimeError(f"set-up command {argv[3:]} failed with exit "
                           f"{result.returncode}:\n"
                           f"{result.stdout.decode(errors='replace')}")


def digest(directory: Path) -> str:
    """sha256 over every file under ``directory``: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_advec(path: Path) -> tuple[int, list[dict], list[bytes]]:
    """Parse one ``.advec`` file independently of the program's reader.

    :returns: (dimension, record metadata, raw little-endian float32 vectors).
    :raises CheckFailed: on any structural or checksum defect.
    """
    data = path.read_bytes()
    if len(data) < 24 or data[:8] != ADVEC_MAGIC:
        raise CheckFailed(f"{path.name}: bad or truncated header")
    dim, count, checksum = struct.unpack_from("<IQI", data, 8)
    if zlib.crc32(data[24:]) != checksum:
        raise CheckFailed(f"{path.name}: payload checksum mismatch")
    metas, vectors = [], []
    pos = 24
    for _ in range(count):
        if pos + 4 > len(data):
            raise CheckFailed(f"{path.name}: truncated at record {len(metas)}")
        (meta_len,) = struct.unpack_from("<I", data, pos)
        end = pos + 4 + meta_len + 4 * dim
        if end > len(data):
            raise CheckFailed(f"{path.name}: truncated at record {len(metas)}")
        metas.append(json.loads(data[pos + 4:pos + 4 + meta_len]))
        vectors.append(data[pos + 4 + meta_len:end])
        pos = end
    if pos != len(data):
        raise CheckFailed(f"{path.name}: {len(data) - pos} trailing bytes")
    return dim, metas, vectors


def read_store(directory: Path):
    """All records of a store: (metadata list, float32 matrix)."""
    import numpy as np

    paths = sorted(directory.glob("*.advec"))
    if not paths:
        raise CheckFailed(f"{directory.name}: no .advec files")
    metas, rows = [], []
    for path in paths:
        dim, file_metas, vectors = read_advec(path)
        metas.extend(file_metas)
        rows.extend(np.frombuffer(v, dtype="<f4", count=dim) for v in vectors)
    return metas, np.vstack(rows)


class Workload:
    """One workload. Subclasses define set-up, op arguments and checks."""

    name = ""
    unit = ""  # what items_per_s counts

    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env

    def prepare(self, directory: Path) -> None:
        raise NotImplementedError

    def op_args(self, index: int) -> list[str]:
        """``adam`` arguments of the ``index``-th op (0 is also the warm-up)."""
        raise NotImplementedError

    def items(self, index: int) -> int:
        raise NotImplementedError

    def check(self, index: int, op_dir: Path) -> None:
        """Raise CheckFailed if the op's outputs are wrong."""
        raise NotImplementedError

    def _synth(self, directory: Path) -> None:
        run_setup_command(adam("synth", "--out", "data", "--seed",
                               str(self.seed)), directory, self.env)

    def _corpus(self, directory: Path) -> list[dict]:
        return corpus.write_corpus(directory / "corpus.jsonl", self.seed,
                                   directory / "data" / "synthetic.schema.json")


class Protocol(Workload):
    """The paper's seeded four-model evaluation, a block of seeds per op."""

    name = "protocol"
    unit = "seeds"

    def prepare(self, directory: Path) -> None:
        self._synth(directory)

    def _seed_base(self, index: int) -> int:
        return 100 * self.seed + SEEDS_PER_OP * index

    def op_args(self, index: int) -> list[str]:
        return ["evaluate", "--out", "out", "--dataset", DATA,
                "--schema", SCHEMA, "--models", "gbdt,rf,lr,adam",
                "--seeds", str(SEEDS_PER_OP),
                "--seed-base", str(self._seed_base(index)), "--jobs", "1"]

    def items(self, index: int) -> int:
        return SEEDS_PER_OP

    def check(self, index: int, op_dir: Path) -> None:
        check_trials(op_dir / "out" / "trials.csv",
                     range(self._seed_base(index),
                           self._seed_base(index) + SEEDS_PER_OP))


def check_trials(path: Path, seeds) -> None:
    """Exactly one row per (seed, model); adam's row equals baseline-gbdt's."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_seed: dict[str, dict[str, dict]] = {}
    for row in rows:
        models = by_seed.setdefault(row["seed"], {})
        if row["model"] in models:
            raise CheckFailed(f"seed {row['seed']}: two {row['model']} rows")
        models[row["model"]] = row
    expected = {str(s) for s in seeds}
    if set(by_seed) != expected:
        raise CheckFailed(f"trial seeds {sorted(by_seed)} != {sorted(expected)}")
    for seed, models in by_seed.items():
        if sorted(models) != sorted(PROTOCOL_MODELS):
            raise CheckFailed(f"seed {seed}: models {sorted(models)}")
        for metric in ("accuracy", "auc", "f1"):
            if models["adam"][metric] != models["baseline-gbdt"][metric]:
                raise CheckFailed(f"seed {seed}: adam {metric} differs from "
                                  "baseline-gbdt under the mock backends")


class CohortScreen(Workload):
    """Per-visit screening of a 30-sample cohort against a seeded store."""

    name = "cohort-screen"
    unit = "samples"

    def __init__(self, seed: int, env: dict):
        super().__init__(seed, env)
        self._store = None

    def prepare(self, directory: Path) -> None:
        self._synth(directory)
        self._corpus(directory)
        run_setup_command(adam("index", "--corpus", "corpus.jsonl",
                               "--store", "store"), directory, self.env)
        run_setup_command(adam("train", "--out", "model", "--dataset",
                               "data/synthetic.csv", "--schema",
                               "data/synthetic.schema.json", "--seed",
                               str(self.seed)), directory, self.env)

    def op_args(self, index: int) -> list[str]:
        return ["classify", "--out", "out", "--dataset", DATA,
                "--schema", SCHEMA, "--model", MODEL, "--store", STORE,
                "--seed", str(1000 * self.seed + index),
                "--threshold", repr(THRESHOLD), "--top-k", str(TOP_K),
                "--fallback-threshold", repr(FALLBACK_THRESHOLD)]

    def items(self, index: int) -> int:
        return COHORT_SIZE

    def check(self, index: int, op_dir: Path) -> None:
        if self._store is None:
            self._store = read_store(op_dir / STORE)
        check_dossier(op_dir / "out" / "dossier.json", self._store,
                      random.Random(f"{self.seed}:{index}"))


def _step_queries(entry: dict) -> list[tuple[str, int]]:
    """(query text, hit count) for every step transcript line of a sample."""
    out = []
    for line in entry["report"]["step_transcripts"]:
        head, _, hits = line.rpartition(" | hits: ")
        _, _, query = head.partition(" | query: ")
        out.append((query, int(hits)))
    return out


def check_dossier(path: Path, store, rng: random.Random) -> None:
    """Verdicts follow the fallback threshold; sampled step queries get the
    hit counts of a float64 linear scan over the store."""
    import numpy as np
    from adam.embedding import OfflineHashEmbedder

    doc = json.loads(path.read_text(encoding="utf-8"))
    samples = doc["samples"]
    if len(samples) != COHORT_SIZE:
        raise CheckFailed(f"dossier has {len(samples)} samples")
    for entry in samples:
        expected = "Yes" if entry["probability"] >= FALLBACK_THRESHOLD else "No"
        if entry["verdict"] != expected:
            raise CheckFailed(f"{entry['sample_id']}: verdict "
                              f"{entry['verdict']} at p={entry['probability']}")
    _, matrix = store
    unit = matrix.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    embedder = OfflineHashEmbedder(dim=unit.shape[1])
    queries = [q for entry in samples for q in _step_queries(entry)]
    for query, hits in rng.sample(queries, ORACLE_QUERIES_PER_OP):
        q = embedder.embed(query).astype(np.float64)
        sims = unit @ (q / np.linalg.norm(q))
        if np.any(np.abs(sims - THRESHOLD) < 1e-9):
            continue  # a tie with the threshold is decided by rounding
        expected = min(TOP_K, int(np.count_nonzero(sims >= THRESHOLD)))
        if hits != expected:
            raise CheckFailed(f"query {query[:40]!r}... got {hits} hits, "
                              f"linear scan gives {expected}")


class IndexBuild(Workload):
    """Chunk, embed, save and verify the seeded corpus into a fresh store."""

    name = "index-build"
    unit = "records"

    def __init__(self, seed: int, env: dict):
        super().__init__(seed, env)
        self._records = None

    def prepare(self, directory: Path) -> None:
        self._synth(directory)
        documents = self._corpus(directory)
        self._records = expected_records(documents)

    def op_args(self, index: int) -> list[str]:
        return ["index", "--corpus", CORPUS, "--store", "out", "--verify"]

    def items(self, index: int) -> int:
        return self._records

    def check(self, index: int, op_dir: Path) -> None:
        metas, _ = read_store(op_dir / "out")
        if len(metas) != self._records:
            raise CheckFailed(f"store holds {len(metas)} records, the corpus "
                              f"segments into {self._records}")


def expected_records(documents: list[dict]) -> int:
    """Sum of chunker.segment_count over the corpus documents."""
    from adam.chunker import segment_count

    return sum(segment_count(len(doc["text"]), corpus.SEGMENT_LENGTH,
                             corpus.OVERLAP) for doc in documents)


WORKLOADS = {cls.name: cls for cls in (Protocol, CohortScreen, IndexBuild)}
