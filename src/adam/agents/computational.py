"""Computational agent: ensemble probability, diversity, attribution.

Assembles everything numeric the language agents consume, for a whole
set of visits at once. The deployed model may use a feature subset;
``SampleSet.model_inputs`` looks its columns up by name and fills gaps
with the stored training medians, so the probability here is exactly
what the deployed ensemble predicts for each visit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..attribution import Attribution, explain_rows
from ..dataset import SampleSet
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


def run_computational_many(visits: SampleSet, deployed: DeployedModel,
                           reference: SampleSet) -> list[ComputationalOutput]:
    """Probability, diversity profile, and attribution for each visit.

    One ``SampleSet.model_inputs`` matrix, one ``shap_values`` and one
    ``predict_margin`` call, and one diversity pass against the
    reference serve every visit; each output is bit-identical to
    computing its visit alone.

    :param reference: SampleSet of healthy training samples; its taxa
        rows anchor the beta-diversity distances.
    """
    if reference.taxon_names != visits.taxon_names:
        raise AlignmentError("reference taxon axis differs from the sample's")
    X = visits.model_inputs(deployed.feature_names, deployed.medians)
    attributions = explain_rows(deployed.model, X, deployed.feature_names)
    profiles = diversity_profiles(
        visits.taxa_matrix().reshape(len(visits), len(visits.taxon_names)),
        reference.taxa_matrix(),
        names=[f"sample {s.sample_id}" for s in visits.samples],
        reference_names=[f"reference sample {s.sample_id}" for s in reference.samples])
    outputs = []
    for sample, attribution, profile in zip(visits.samples, attributions, profiles):
        clinical = tuple(zip(visits.clinical_names,
                             (float(v) for v in sample.clinical)))
        taxa_ranked = sorted(zip(visits.taxon_names, (float(v) for v in sample.taxa)),
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

