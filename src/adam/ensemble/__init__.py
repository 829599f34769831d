"""Gradient-boosted trees, reference baselines, metrics, and tuning.

Each exported name is imported from the module that defines it when it
is first read, so importing one submodule loads no other.
"""

from importlib import import_module

# The exported names of each module, relative to this package.
_SOURCES = {
    ".baselines": ("LR_DEFAULTS", "RF_DEFAULTS", "LogisticRegressionModel",
                   "RandomForestModel", "fit_logistic_regression", "fit_random_forest"),
    ".gbdt": ("DEFAULT_PARAMS", "GBDTModel", "GBDTParams", "feature_gains", "fit_gbdt",
              "log_loss", "model_from_dict", "model_to_dict"),
    ".metrics": ("BinaryMetrics", "accuracy", "auc_score", "evaluate_binary",
                 "precision_recall_f1"),
    ".tree": ("Tree",),
    ".tuning": ("Dimension", "TrialRecord", "default_space", "grouped_kfold", "run_search"),
}
_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_EXPORTS[name], __name__), name)
    return value
