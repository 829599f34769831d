"""Frozen gradient-descent reference for the logistic-regression baseline,
as it was fitted before the Newton/IRLS solver: full-batch gradient
descent with step 1/L, L the Lipschitz constant of the gradient.

The solver tests check that Newton's solution has a penalized loss no
higher than this fit's last iterate. Keep this file as it is: its only
job is to preserve the old behavior.
"""

from __future__ import annotations

import numpy as np

from adam.ensemble.baselines import LR_DEFAULTS, LogisticRegressionModel
from adam.ensemble.gbdt import fit_inputs, sigmoid


def fit_logistic_regression_gd(X, y, l2_reg: float = LR_DEFAULTS["l2_reg"],
                               max_iter: int = LR_DEFAULTS["max_iter"],
                               tol: float = LR_DEFAULTS["tol"]) -> LogisticRegressionModel:
    """Full-batch gradient descent on standardized features.

    The step size is 1/L with L the Lipschitz constant of the gradient
    (largest eigenvalue of X^T X / (4n) plus the ridge term), so the
    loss decreases monotonically; the intercept is not penalized.
    """
    X, y = fit_inputs(X, y)
    n, d = X.shape
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales[scales == 0.0] = 1.0
    Z = (X - means) / scales
    lipschitz = float(np.linalg.norm(Z, 2) ** 2) / (4.0 * n) + l2_reg
    step = 1.0 / lipschitz
    w = np.zeros(d)
    b = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        err = sigmoid(Z @ w + b) - y
        grad_w = Z.T @ err / n + l2_reg * w
        grad_b = float(err.mean())
        w -= step * grad_w
        b -= step * grad_b
        if max(float(np.abs(grad_w).max(initial=0.0)), abs(grad_b)) <= tol:
            converged = True
            break
    return LogisticRegressionModel(weights=w, intercept=b, feature_means=means,
                                   feature_scales=scales, n_iterations=it,
                                   converged=converged)
