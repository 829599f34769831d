"""Seeded generator for a study-shaped synthetic dataset.

Produces a 335-row stool-sample table from 100 participants (33 of them
positive) so every downstream stage runs at desk scale with realistic
shape: 110/335 positive samples (32.84%), one to twelve visits per
participant with a median of three, nine clinical covariates, and 64
taxon abundance columns per row that sum to 100.

The class signal is deliberately separable: positive participants carry
high Neglecta timonensis, low Faecalibacterium prausnitzii, and high
frailty; negatives the reverse. Everything is a pure function of the
seed.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import json_text, replacing, write_text

N_PARTICIPANTS = 100
N_POSITIVE_PARTICIPANTS = 33
N_SAMPLES = 335
N_POSITIVE_SAMPLES = 110

# visits per participant: {count: how many participants}, split by class.
# Totals are pinned: positives sum to 110 samples, negatives to 225,
# the pooled median count is 3 and the range is 1..12.
_POSITIVE_VISIT_COUNTS = {1: 4, 2: 3, 3: 16, 4: 6, 5: 2, 6: 1, 12: 1}
_NEGATIVE_VISIT_COUNTS = {1: 8, 2: 5, 3: 29, 4: 14, 5: 6, 6: 3, 8: 2}

PROTECTIVE_TAXON = "Faecalibacterium prausnitzii"
RISK_TAXON = "Neglecta timonensis"

TAXA = (
    "Akkermansia muciniphila", "Alistipes finegoldii", "Alistipes putredinis",
    "Alistipes shahii", "Anaerostipes hadrus", "Bacteroides caccae",
    "Bacteroides fragilis", "Bacteroides ovatus", "Bacteroides thetaiotaomicron",
    "Bacteroides uniformis", "Bacteroides vulgatus", "Barnesiella intestinihominis",
    "Bifidobacterium adolescentis", "Bifidobacterium bifidum",
    "Bifidobacterium longum", "Bilophila wadsworthia", "Blautia obeum",
    "Blautia wexlerae", "Butyricicoccus pullicaecorum", "Butyrivibrio crossotus",
    "Clostridium bolteae", "Clostridium clostridioforme", "Clostridium leptum",
    "Clostridium scindens", "Collinsella aerofaciens", "Coprococcus catus",
    "Coprococcus comes", "Coprococcus eutactus", "Desulfovibrio piger",
    "Dialister invisus", "Dorea formicigenerans", "Dorea longicatena",
    "Eggerthella lenta", "Enterococcus faecalis", "Escherichia coli",
    "Eubacterium eligens", "Eubacterium hallii", "Eubacterium rectale",
    "Eubacterium ventriosum", PROTECTIVE_TAXON, "Flavonifractor plautii",
    "Fusicatenibacter saccharivorans", "Haemophilus parainfluenzae",
    "Hungatella hathewayi", "Intestinibacter bartlettii", "Klebsiella pneumoniae",
    "Lachnospira pectinoschiza", "Lactobacillus rhamnosus",
    "Marvinbryantia formatexigens", "Megamonas funiformis",
    "Megasphaera elsdenii", RISK_TAXON, "Odoribacter splanchnicus",
    "Oscillibacter valericigenes", "Parabacteroides distasonis",
    "Parabacteroides merdae", "Paraprevotella clara",
    "Phascolarctobacterium faecium", "Prevotella copri", "Roseburia faecis",
    "Roseburia hominis", "Roseburia intestinalis", "Ruminococcus bromii",
    "Streptococcus thermophilus",
)

CLINICAL = ("age", "cardiovascular_disease", "frailty_score", "hypertension",
            "malnutrition_score", "med_corticosteroid", "med_count",
            "med_seizure", "sex")

_MISSING_RATE = 0.01
_MISSING_ELIGIBLE = ("age", "med_count", "hypertension", "cardiovascular_disease")


def _expand_counts(table: dict[int, int]) -> list[int]:
    out: list[int] = []
    for visits in sorted(table):
        out.extend([visits] * table[visits])
    return out


def _participant_traits(rng: np.random.Generator, positive: bool) -> dict:
    traits = {
        "age": int(np.clip(round(rng.normal(84.5, 7.0)), 65, 99)),
        "sex": int(rng.random() < 0.857),
        "hypertension": int(rng.random() < 0.6),
        "cardiovascular_disease": int(rng.random() < 0.45),
        "med_corticosteroid": int(rng.random() < 0.2),
        "med_count": int(rng.integers(4, 15)),
    }
    if positive:
        traits["frailty_score"] = int(rng.integers(6, 10))
        traits["malnutrition_score"] = int(rng.integers(1, 4))
        traits["med_seizure"] = int(rng.random() < 0.35)
        traits["protective_base"] = float(rng.uniform(0.0, 0.35))
        traits["risk_base"] = float(rng.uniform(1.2, 4.0))
    else:
        traits["frailty_score"] = int(rng.integers(1, 7))
        traits["malnutrition_score"] = int(rng.integers(0, 3))
        traits["med_seizure"] = int(rng.random() < 0.1)
        traits["protective_base"] = float(rng.uniform(1.0, 4.0))
        traits["risk_base"] = float(rng.uniform(0.0, 0.3))
    base = np.exp(rng.normal(0.0, 1.0, size=len(TAXA)))
    base[TAXA.index(PROTECTIVE_TAXON)] = traits["protective_base"]
    base[TAXA.index(RISK_TAXON)] = traits["risk_base"]
    traits["taxa_base"] = base
    return traits


def _visit_taxa(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    jitter = np.exp(rng.normal(0.0, 0.15, size=base.size))
    raw = base * jitter
    return np.round(raw * (100.0 / raw.sum()), 5)


def generate_rows(seed: int = 0) -> tuple[tuple[str, ...], tuple, dict]:
    """Deterministic synthetic table plus the matching column schema:
    (header, rows, schema)."""
    rng = np.random.default_rng(seed)
    counts = ([(1, c) for c in _expand_counts(_POSITIVE_VISIT_COUNTS)]
              + [(0, c) for c in _expand_counts(_NEGATIVE_VISIT_COUNTS)])
    order = rng.permutation(len(counts))
    header = ("sample_id", "study_id", "visit", "label") + CLINICAL + TAXA
    rows: list[tuple[str, ...]] = []
    sample_no = 0
    for participant_no, idx in enumerate(order, start=1):
        label, n_visits = counts[idx]
        study_id = f"ST{participant_no:03d}"
        traits = _participant_traits(rng, positive=bool(label))
        for visit in range(1, n_visits + 1):
            sample_no += 1
            taxa = _visit_taxa(rng, traits["taxa_base"])
            cells = {
                "sample_id": f"FB{sample_no:03d}",
                "study_id": study_id,
                "visit": str(visit),
                "label": str(label),
            }
            for name in CLINICAL:
                value = str(traits[name])
                if name in _MISSING_ELIGIBLE and rng.random() < _MISSING_RATE:
                    value = ""
                cells[name] = value
            for i, name in enumerate(TAXA):
                cells[name] = f"{taxa[i]:.5f}"
            rows.append(tuple(cells[col] for col in header))
    schema = {"columns": {"sample_id": "sample_id", "study_id": "study_id",
                          "visit": "visit", "label": "label",
                          **{c: "clinical" for c in CLINICAL},
                          **{t: "taxon" for t in TAXA}}}
    return header, tuple(rows), schema


def write_dataset(directory, seed: int = 0,
                  stem: str = "synthetic") -> tuple[Path, Path]:
    """Write ``<stem>.csv`` and ``<stem>.schema.json``; returns both paths."""
    directory = Path(directory)
    header, rows, schema = generate_rows(seed)
    csv_path = directory / f"{stem}.csv"
    with replacing(csv_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    schema_path = directory / f"{stem}.schema.json"
    write_text(schema_path, json_text(schema))
    return csv_path, schema_path
