"""Computational agent: ensemble probability, diversity, attribution.

Assembles everything numeric the language agents consume. The deployed
model may use a feature subset; values are looked up by name from the
sample and imputed with the stored training medians, so the probability
here is exactly what the deployed ensemble predicts for this sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..attribution import Attribution, explain_rows
from ..dataset import Sample
from ..diversity import DiversityProfile, diversity_profiles
from ..ensemble.gbdt import GBDTModel
from ..errors import AlignmentError

TOP_FEATURE_COUNT = 10
TOP_TAXA_COUNT = 8


@dataclass(frozen=True)
class DeployedModel:
    """A fitted ensemble plus the feature contract it was trained under.

    :param feature_names: names the model consumes, in training order
        (possibly a selected subset of the dataset's columns).
    :param medians: per-name imputation values from the training
        partition only.
    """

    model: GBDTModel
    feature_names: tuple[str, ...]
    medians: dict[str, float]

    def __post_init__(self):
        if len(self.feature_names) != self.model.n_features:
            raise AlignmentError(
                f"model consumes {self.model.n_features} features but "
                f"{len(self.feature_names)} names were declared")
        missing = [n for n in self.feature_names if n not in self.medians]
        if missing:
            raise AlignmentError(f"no imputation median for: {missing[:5]}")


class ComputationalOutput(NamedTuple):
    """All numeric evidence for one sample."""

    sample_id: str
    study_id: str
    visit_index: int
    probability: float
    diversity: DiversityProfile
    attribution: Attribution
    top_features: tuple[tuple[str, float], ...]
    clinical_highlights: tuple[tuple[str, float], ...]
    taxa_highlights: tuple[tuple[str, float], ...]


def feature_matrix(samples, clinical_names, taxon_names,
                   deployed: DeployedModel) -> np.ndarray:
    """Model input per sample, assembled by name; a missing value takes
    the stored training median."""
    names = tuple(clinical_names) + tuple(taxon_names)
    column = {name: i for i, name in enumerate(names)}  # a taxon shadows a clinical name
    missing = [n for n in deployed.feature_names if n not in column]
    if missing:
        raise AlignmentError(f"model feature {missing[0]!r} is not a column of the dataset")
    values = np.empty((len(samples), len(names)))
    for row, sample in zip(values, samples):
        if len(sample.clinical) + len(sample.taxa) != len(names):
            raise AlignmentError(
                f"sample {sample.sample_id} does not align with the dataset's columns")
        row[:] = sample.clinical + sample.taxa
    X = values[:, [column[n] for n in deployed.feature_names]]
    medians = np.array([deployed.medians[n] for n in deployed.feature_names], dtype=float)
    return np.where(np.isnan(X), medians, X)


def run_computational_many(samples, clinical_names, taxon_names,
                           deployed: DeployedModel, reference) -> list[ComputationalOutput]:
    """Probability, diversity profile, and attribution for each sample.

    One feature matrix, one ``shap_values`` and one ``predict_margin``
    call, and one diversity pass against the reference serve every
    sample; each output is bit-identical to computing its sample alone.

    :param reference: SampleSet of healthy training samples; its taxa
        rows anchor the beta-diversity distances.
    """
    samples = list(samples)
    clinical_names = tuple(clinical_names)
    taxon_names = tuple(taxon_names)
    if tuple(reference.taxon_names) != taxon_names:
        raise AlignmentError("reference taxon axis differs from the sample's")
    X = feature_matrix(samples, clinical_names, taxon_names, deployed)
    attributions = explain_rows(deployed.model, X, deployed.feature_names)
    taxa = np.array([s.taxa for s in samples], dtype=float).reshape(
        len(samples), len(taxon_names))
    profiles = diversity_profiles(
        taxa, reference.taxa_matrix(),
        names=[f"sample {s.sample_id}" for s in samples],
        reference_names=[f"reference sample {s.sample_id}" for s in reference.samples])
    outputs = []
    for sample, attribution, profile in zip(samples, attributions, profiles):
        clinical = tuple(zip(clinical_names,
                             (float(v) for v in sample.clinical)))
        taxa_ranked = sorted(zip(taxon_names, (float(v) for v in sample.taxa)),
                             key=lambda kv: (-kv[1], kv[0]))
        outputs.append(ComputationalOutput(
            sample_id=sample.sample_id,
            study_id=sample.study_id,
            visit_index=sample.visit_index,
            probability=attribution.probability,
            diversity=profile,
            attribution=attribution,
            top_features=attribution.ranked()[:TOP_FEATURE_COUNT],
            clinical_highlights=clinical,
            taxa_highlights=tuple(taxa_ranked[:TOP_TAXA_COUNT]),
        ))
    return outputs


def run_computational(sample: Sample, clinical_names, taxon_names,
                      deployed: DeployedModel, reference) -> ComputationalOutput:
    """Probability, diversity profile, and attribution for one sample:
    the one-sample case of ``run_computational_many``."""
    return run_computational_many([sample], clinical_names, taxon_names,
                                  deployed, reference)[0]
