"""Three coordinated agents: computational, summarization, classification.

Each exported name is imported from the module that defines it when it
is first read, so importing one submodule loads no other.
"""

from importlib import import_module

# The exported names of each module, relative to this package.
_SOURCES = {
    "..config": ("CLASSIFICATION_TOKEN_BUDGET", "DEFAULT_CLASSIFICATION_MODEL",
                 "DEFAULT_FALLBACK_THRESHOLD", "DEFAULT_SUMMARIZATION_MODEL",
                 "SUMMARIZATION_TOKEN_BUDGET"),
    ".computational": ("TOP_FEATURE_COUNT", "TOP_TAXA_COUNT", "ComputationalOutput",
                       "DeployedModel", "run_computational_many"),
    ".llm": ("API_KEY_VARIABLE", "HttpChatBackend", "LLMBackend", "LLMRequest",
             "StaticMock", "ThresholdMockLLM", "TitleEchoMock", "estimate_tokens",
             "parse_verdict", "probability_line", "threshold_line"),
    ".pipeline": ("NO_HISTORY_MARKER", "NO_PASSAGES_MARKER", "StageTranscript",
                  "StepRecord", "classify_cohort", "healthy_reference", "run_pipeline",
                  "stage_queries"),
    ".report": ("NO_ATTRIBUTIONS_MARKER", "SECTION_TITLES", "ClassificationReport",
                "build_sections", "format_attribution", "format_probability",
                "render_report"),
    ".steps": ("CLASSIFICATION_TITLES", "PROGRAMS", "SUMMARIZATION_TITLES"),
}
_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_EXPORTS[name], __name__), name)
    return value
