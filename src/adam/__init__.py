"""Multi-agent gut-microbiome screening pipeline for Alzheimer's disease.

Subpackages and modules:
  dataset      CSV ingestion, grouped splits, cohorts, imputation
  synthetic    seeded generator for a desk-scale longitudinal dataset
  diversity    alpha and beta community-diversity metrics
  ensemble     boosted trees, baselines, metrics, hyperparameter search
  attribution  exact Shapley attributions for the boosted ensemble
  chunker      sliding-window document segmentation
  embedding    offline-hash and remote embedding backends
  vectorstore  persisted unit-vector collections with exact cosine search
  agents       computational, summarization, and classification agents,
               and the cohort driver that classify and evaluate run
  evaluation   seeded trial protocol (train and evaluate)
  comparison   per-seed trial files and model comparison statistics
  stats        rank and variance tests with exact special functions
  cli          operator command line (python3 -m adam ...)
"""

__version__ = "1.0.0"

from . import errors

__all__ = ["__version__", "errors"]
