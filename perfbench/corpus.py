"""Seeded literature corpus for the benchmark.

The repository ships no corpus, so the benchmark writes one: a JSONL file
of publications (``publication_id``, ``title``, ``text``, ``keywords``) in
the format ``adam index`` reads. Text is drawn from a vocabulary that
includes the dataset's own taxon and clinical column names, so 3-gram
sharing between step queries and passages is realistic rather than the
same sentence repeated. Documents come in three kinds:

* taxon reviews, dense in a few taxon names and microbiome terms;
* clinical papers, dense in covariate names and dementia terms;
* methods papers, dense in diversity, attribution and model terms.

The mix of kinds spreads step-query similarities around the threshold the
benchmark uses, so some step queries fill top-k and others get none.
Segment counts per document are fixed by the seed from a fixed multiset,
so every seed yields the same total record count.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Record budget: DOCUMENTS documents whose segment counts are a permutation
# of SEGMENT_COUNTS repeated, so the total is fixed across seeds.
SEGMENT_COUNTS = (2, 3, 4, 5, 6)
DOCUMENTS = 200
SEGMENT_LENGTH = 2000
OVERLAP = 400

MICROBIOME_TERMS = (
    "gut microbiome", "microbial community", "relative abundance",
    "short-chain fatty acids", "butyrate production", "mucin degradation",
    "intestinal barrier", "dysbiosis", "commensal bacteria",
    "metagenomic sequencing", "16S rRNA profiling", "bile acid metabolism",
    "lipopolysaccharide", "tryptophan metabolites", "enterotype",
    "bacterial taxa", "stool sample", "fecal microbiota",
    "immunosenescence", "gut-brain axis", "vagus nerve signalling",
    "microglial activation", "propionate", "acetate", "trimethylamine",
)
DEMENTIA_TERMS = (
    "Alzheimer's disease", "amyloid beta", "tau pathology",
    "neuroinflammation", "cognitive decline", "mild cognitive impairment",
    "dementia diagnosis", "hippocampal atrophy", "memory assessment",
    "nursing home residents", "longitudinal cohort", "frailty",
    "malnutrition", "polypharmacy", "corticosteroid exposure",
    "seizure medication", "cardiovascular risk", "hypertension",
    "clinical covariates", "participant visits", "older adults",
)
METHOD_TERMS = (
    "Shannon Index", "Gini-Simpson Index", "Berger-Parker Index",
    "Bray-Curtis distance", "Jaccard distance", "Canberra distance",
    "alpha diversity", "beta diversity", "healthy reference",
    "gradient boosting", "decision trees", "Shapley values",
    "SHAP feature importance", "feature attribution", "model probability",
    "decision threshold", "random forest", "logistic regression",
    "cross-validation", "F1 score", "area under the curve",
    "misclassification", "leading features", "dominant taxa",
    "probabilistic assessment", "classification refinement",
)
GENERAL_WORDS = (
    "we", "observed", "that", "the", "in", "of", "and", "was", "were",
    "associated", "with", "higher", "lower", "levels", "patients",
    "compared", "controls", "study", "analysis", "results", "suggest",
    "significant", "increase", "decrease", "across", "samples", "between",
    "groups", "after", "adjusting", "for", "age", "sex", "this", "finding",
    "indicates", "a", "role", "may", "contribute", "to", "mechanism",
    "further", "evidence", "supports", "hypothesis", "measured", "cohort",
    "reported", "correlation", "trend", "baseline", "follow-up", "visit",
    "changes", "within", "participants", "model", "predicted", "outcome",
    "depleted", "enriched", "abundance", "marker", "signal", "risk",
)
VERBS = ("was enriched in", "was depleted in", "correlated with",
         "predicted", "was associated with", "differed between",
         "declined alongside", "rose together with")


def _sentence(rng: random.Random, focus: tuple[str, ...],
              pools: tuple[tuple[str, ...], ...]) -> str:
    subject = rng.choice(focus)
    obj = rng.choice(rng.choice(pools))
    filler = " ".join(rng.choice(GENERAL_WORDS)
                      for _ in range(rng.randint(4, 10)))
    return (f"{subject[0].upper()}{subject[1:]} {rng.choice(VERBS)} "
            f"{obj}; {filler}.")


def _document(rng: random.Random, number: int, segments: int,
              taxa: tuple[str, ...], clinical: tuple[str, ...]) -> dict:
    kind = number % 3
    if kind == 0:
        focus = tuple(rng.sample(taxa, 3))
        pools = (MICROBIOME_TERMS, taxa, DEMENTIA_TERMS)
        keywords = ["gut microbiome", focus[0]]
        title = f"{focus[0]} and the gut-brain axis in older adults"
    elif kind == 1:
        focus = tuple(rng.sample(clinical, 2)) + tuple(rng.sample(DEMENTIA_TERMS, 2))
        pools = (DEMENTIA_TERMS, clinical, MICROBIOME_TERMS)
        keywords = ["Alzheimer's disease", focus[0]]
        title = f"{focus[0]} as a clinical marker of Alzheimer's disease"
    else:
        focus = tuple(rng.sample(METHOD_TERMS, 4))
        pools = (METHOD_TERMS, taxa, clinical)
        keywords = ["methods", focus[0]]
        title = f"{focus[0]} for microbiome-based screening"
    # A text of this length cuts into exactly `segments` windows.
    stride = SEGMENT_LENGTH - OVERLAP
    length = OVERLAP + (segments - 1) * stride + rng.randint(200, stride)
    parts: list[str] = []
    size = 0
    while size < length:
        sentence = _sentence(rng, focus, pools)
        parts.append(sentence)
        size += len(sentence) + 1
    text = " ".join(parts)[:length].rstrip()
    return {"publication_id": f"PUB{number:04d}", "title": title,
            "text": text, "keywords": keywords}


def column_names(schema_path: Path) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(taxon names, clinical names) declared by a dataset schema."""
    columns = json.loads(Path(schema_path).read_text(encoding="utf-8"))["columns"]
    taxa = tuple(sorted(n for n, role in columns.items() if role == "taxon"))
    clinical = tuple(sorted(n for n, role in columns.items() if role == "clinical"))
    return taxa, clinical


def write_corpus(path: Path, seed: int, schema_path: Path) -> list[dict]:
    """Write the seeded corpus to ``path``; returns its documents."""
    taxa, clinical = column_names(schema_path)
    rng = random.Random(seed)
    counts = list(SEGMENT_COUNTS) * (DOCUMENTS // len(SEGMENT_COUNTS))
    rng.shuffle(counts)
    documents = [_document(rng, number, segments, taxa, clinical)
                 for number, segments in enumerate(counts, start=1)]
    with open(path, "w", encoding="utf-8") as fh:
        for doc in documents:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return documents
