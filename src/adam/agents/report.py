"""Per-sample classification report: structure and plain-text rendering.

Every report opens with a machine-parseable verdict headline and then
walks five numbered rationale sections in a fixed order: clinical
indicators, medications, gut microbiome profile, diversity metrics,
and feature attributions. Formatting rules are part of the contract:
probabilities as percentages with two decimals ("24.20%"), attribution
values signed with four decimals ("+0.7978"), diversity indices with
two decimals ("Shannon Index: 3.50").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .computational import ComputationalOutput

SECTION_TITLES = (
    "Clinical Indicators",
    "Medications",
    "Gut Microbiome Profile",
    "Diversity Metrics",
    "SHAP Feature Importance",
)

MEDICATION_PREFIX = "med_"
NO_ATTRIBUTIONS_MARKER = "No attributions available"


@dataclass(frozen=True)
class ClassificationReport:
    sample_id: str
    verdict: str  # "Yes" | "No"
    probability: float
    sections: tuple[tuple[str, str], ...]
    summary: str
    step_transcripts: tuple[str, ...]

    def __post_init__(self):
        if self.verdict not in ("Yes", "No"):
            raise ValueError(f"verdict must be Yes or No, got {self.verdict!r}")


def format_probability(probability: float) -> str:
    return f"{100.0 * probability:.2f}%"


def format_attribution(value: float) -> str:
    return f"{value:+.4f}"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "unknown"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def _clinical_section(output: ComputationalOutput) -> str:
    parts = [f"{name}: {_format_value(value)}"
             for name, value in output.clinical_highlights
             if not name.startswith(MEDICATION_PREFIX)]
    return "; ".join(parts) if parts else "No clinical covariates recorded"


def _medication_section(output: ComputationalOutput) -> str:
    parts = [f"{name[len(MEDICATION_PREFIX):]}: {_format_value(value)}"
             for name, value in output.clinical_highlights
             if name.startswith(MEDICATION_PREFIX)]
    return "; ".join(parts) if parts else "No medication flags recorded"


def _microbiome_section(output: ComputationalOutput) -> str:
    parts = [f"{name} ({value:.5f})" for name, value in output.taxa_highlights]
    return ("Most abundant taxa: " + ", ".join(parts)
            if parts else "No abundance data recorded")


def _diversity_section(output: ComputationalOutput) -> str:
    d = output.diversity
    parts = [f"Shannon Index: {d.shannon:.2f}",
             f"Gini-Simpson Index: {d.gini_simpson:.2f}",
             f"Berger-Parker Index: {d.berger_parker:.2f}"]
    parts.extend(f"{name.replace('_', '-').title()} distance to reference: "
                 f"{value:.4f}"
                 for name, value in sorted(d.beta_to_reference.items()))
    return "; ".join(parts)


def _attribution_section(output: ComputationalOutput) -> str:
    if not output.top_features:
        return NO_ATTRIBUTIONS_MARKER
    parts = [f"{name} (SHAP: {format_attribution(value)})"
             for name, value in output.top_features]
    return "Top contributions: " + ", ".join(parts)


def build_sections(output: ComputationalOutput) -> tuple[tuple[str, str], ...]:
    """The five rationale sections, in canonical order."""
    bodies = (_clinical_section(output), _medication_section(output),
              _microbiome_section(output), _diversity_section(output),
              _attribution_section(output))
    return tuple(zip(SECTION_TITLES, bodies))


def render_report(report: ClassificationReport) -> str:
    """Plain-text document; the first line is the parseable headline."""
    lines = [f"Prediction: {report.verdict} - Alzheimer's disease "
             f"probability assessed at {format_probability(report.probability)}",
             ""]
    for number, (title, body) in enumerate(report.sections, start=1):
        lines.append(f"{number}. {title}: {body}")
        lines.append("")
    lines.append("Narrative summary:")
    lines.append(report.summary.rstrip() if report.summary else "(no summary)")
    lines.append("")
    return "\n".join(lines)
