"""Gradient-boosted trees, reference baselines, metrics, and tuning."""

from .baselines import (
    LR_DEFAULTS,
    RF_DEFAULTS,
    LogisticRegressionModel,
    RandomForestModel,
    fit_logistic_regression,
    fit_random_forest,
)
from .gbdt import (
    DEFAULT_PARAMS,
    GBDTModel,
    GBDTParams,
    feature_gains,
    fit_gbdt,
    log_loss,
    model_from_dict,
    model_to_dict,
)
from .metrics import (
    BinaryMetrics,
    accuracy,
    auc_score,
    evaluate_binary,
    precision_recall_f1,
)
from .tree import Tree
from .tuning import (
    Dimension,
    TrialRecord,
    default_space,
    grouped_kfold,
    run_search,
)

__all__ = [
    "DEFAULT_PARAMS",
    "LR_DEFAULTS",
    "RF_DEFAULTS",
    "BinaryMetrics",
    "Dimension",
    "GBDTModel",
    "GBDTParams",
    "LogisticRegressionModel",
    "RandomForestModel",
    "Tree",
    "TrialRecord",
    "accuracy",
    "auc_score",
    "default_space",
    "evaluate_binary",
    "feature_gains",
    "fit_gbdt",
    "fit_logistic_regression",
    "fit_random_forest",
    "grouped_kfold",
    "log_loss",
    "model_from_dict",
    "model_to_dict",
    "precision_recall_f1",
    "run_search",
]
