"""Downstream models and metrics for the evaluation harness.

Linear regression solves the ridge-jittered normal equations; logistic
regression is deterministic full-batch gradient descent from zero weights.
Both carry an intercept.  Metrics are RMSE for regression and AUC (rank
statistic, ties count one half) for binary classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import check_matrix

RIDGE_JITTER = 1e-8
LOGREG_EPOCHS = 500
LOGREG_STEP = 0.1


def _with_intercept(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # feature weights plus trailing intercept

    def predict(self, x) -> np.ndarray:
        a = check_matrix(x)
        return _with_intercept(a) @ self.weights


def train_linreg(x, y) -> LinearModel:
    """Least squares with intercept via normal equations.

    A ridge term of ``RIDGE_JITTER`` on the diagonal keeps collinear post-PCA
    feature sets solvable; anything singular beyond that raises.
    """
    a = check_matrix(x)
    labels = np.asarray(y, dtype=float)
    if labels.shape != (a.shape[0],):
        raise DataError(f"got {labels.shape} labels for {a.shape[0]} rows")
    if a.shape[0] < a.shape[1] + 1:
        raise DataError(
            f"need at least {a.shape[1] + 1} rows to fit {a.shape[1]} features"
        )
    design = _with_intercept(a)
    gram = design.T @ design + RIDGE_JITTER * np.eye(design.shape[1])
    try:
        weights = np.linalg.solve(gram, design.T @ labels)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"singular normal equations: {exc}") from exc
    return LinearModel(weights=weights)


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray

    def predict_proba(self, x) -> np.ndarray:
        a = check_matrix(x)
        return _sigmoid(_with_intercept(a) @ self.weights)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_logreg(x, y) -> LogisticModel:
    """Log-loss gradient descent, zero-initialized: ``LOGREG_EPOCHS`` steps
    of size ``LOGREG_STEP``."""
    a = check_matrix(x)
    labels = np.asarray(y, dtype=float)
    if labels.shape != (a.shape[0],):
        raise DataError(f"got {labels.shape} labels for {a.shape[0]} rows")
    classes = np.unique(labels)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise DataError(f"logistic regression needs 0/1 labels, got {classes}")
    design = _with_intercept(a)
    weights = np.zeros(design.shape[1])
    n = design.shape[0]
    for _ in range(LOGREG_EPOCHS):
        grad = design.T @ (_sigmoid(design @ weights) - labels) / n
        weights -= LOGREG_STEP * grad
    return LogisticModel(weights=weights)


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties count 1/2."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.shape != y.shape or s.ndim != 1:
        raise DataError(f"scores {s.shape} and labels {y.shape} must match 1-D")
    pos = y == 1.0
    neg = y == 0.0
    if not np.all(pos | neg):
        raise DataError("labels must be 0 or 1")
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: both classes must be present")
    # Tied scores share the mean of the 1-based ranks they span.
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True, equal_nan=False)
    last = np.cumsum(counts)
    ranks = ((last - counts + 1 + last) / 2)[inverse]
    return float(
        (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    )


def rmse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise DataError(f"predictions {p.shape} and targets {t.shape} must match 1-D")
    return float(np.sqrt(np.mean((p - t) ** 2)))
