"""Discriminative and generative linear classifiers for the toy task.

Two model families over labels {-1, +1}:

* :class:`LogisticModel` -- unregularized binary logistic regression fit by
  a quasi-Newton method (L-BFGS-B) on the mean negative log-likelihood.
* :class:`LdaModel` -- Gaussian class-conditional model with shared
  covariance, empirical priors/means, and Ledoit-Wolf shrinkage of the
  pooled within-class covariance toward ``(trace(S)/d) * I``.  Shrinkage
  keeps the covariance positive definite even when ``n < d``.

Class index convention everywhere: index 0 is label -1, index 1 is label +1.
Posterior pairs are ``(P(-1|x), P(+1|x))``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize
from scipy.special import expit

from .datagen import Dataset
from .errors import DataError, DegenerateDataError, ValidationError

LOG_FLOOR = 1e-300  # probabilities are clamped here only where logs are taken

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    converged: bool
    iterations: int

    @property
    def d(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class LdaModel:
    prior_pos: float
    mean_pos: np.ndarray
    mean_neg: np.ndarray
    covariance: np.ndarray
    chol_lower: np.ndarray
    shrinkage_intensity: float
    log_det: float

    @property
    def d(self) -> int:
        return self.mean_pos.size


def _check_train(data: Dataset, min_per_class: int = 1) -> None:
    if not np.isfinite(data.features).all():
        raise DataError("training features contain non-finite values")
    n_pos = int(np.sum(data.labels == 1))
    n_neg = int(np.sum(data.labels == -1))
    if n_pos < min_per_class or n_neg < min_per_class:
        raise DegenerateDataError(
            f"need at least {min_per_class} samples per class, "
            f"got {n_neg} negative / {n_pos} positive"
        )


def _logistic_objective(theta, X, y):
    """Mean negative log-likelihood and its gradient; y in {-1, +1}.

    Margins are clipped at +/-690 so saturated samples cannot push exp()
    into the subnormal range (exact to ~1e-300, but orders of magnitude
    faster: denormal operands stall both the ufuncs and the optimizer).
    """
    n, d = X.shape
    w, b = theta[:d], theta[d]
    margins = np.clip(y * (X @ w + b), -690.0, 690.0)
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    coef = -y * expit(-margins) / n
    grad = np.empty(d + 1)
    grad[:d] = X.T @ coef
    grad[d] = coef.sum()
    return loss, grad


def fit_logistic(data: Dataset, tol: float = 1e-8, max_iter: int = 10_000) -> LogisticModel:
    """Fit unregularized logistic regression by L-BFGS-B from a zero start.

    ``converged`` records whether the gradient infinity-norm at the returned
    point is <= ``tol``.  Separable data may exhaust ``max_iter`` instead;
    that is recorded, not raised.
    """
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    _check_train(data)
    X = np.asarray(data.features, dtype=np.float64)
    y = data.labels.astype(np.float64)
    d = X.shape[1]

    res = minimize(
        _logistic_objective,
        np.zeros(d + 1),
        args=(X, y),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "maxfun": 50 * max_iter, "ftol": 1e-16, "gtol": tol},
    )
    _, grad = _logistic_objective(res.x, X, y)
    return LogisticModel(
        weights=res.x[:d].copy(),
        bias=float(res.x[d]),
        converged=bool(np.max(np.abs(grad)) <= tol),
        iterations=int(res.nit),
    )


def logistic_posterior(model: LogisticModel, x: np.ndarray) -> np.ndarray:
    """Posterior pair ``(P(-1|x), P(+1|x))`` for one input."""
    z = float(np.dot(model.weights, np.asarray(x, dtype=np.float64)) + model.bias)
    return np.array([expit(-z), expit(z)])


def logistic_posteriors(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Row-wise posterior pairs, shape (n, 2)."""
    z = np.asarray(X, dtype=np.float64) @ model.weights + model.bias
    return np.column_stack([expit(-z), expit(z)])


def _ledoit_wolf_shrinkage(centered: np.ndarray, pooled: np.ndarray) -> float:
    """Shrinkage intensity toward ``(trace(S)/d) * I`` for centered rows."""
    n, d = centered.shape
    mu = float(np.trace(pooled)) / d
    delta = float(np.sum((pooled - mu * np.eye(d)) ** 2)) / d
    if delta <= 0.0:
        return 0.0
    sq_norms = np.sum(centered**2, axis=1)
    beta_bar = (float(np.sum(sq_norms**2)) / n - float(np.sum(pooled**2))) / (n * d)
    beta = min(max(beta_bar, 0.0), delta)
    return beta / delta


def fit_lda(data: Dataset) -> LdaModel:
    """Fit the shared-covariance Gaussian classifier with shrinkage.

    Priors and means are empirical.  The pooled within-class covariance
    (MLE, 1/n) is shrunk with a data-driven Ledoit-Wolf intensity computed
    on the variance-standardized scale and mapped back, so shrinkage damps
    correlations without disturbing per-feature variances.  The result is
    positive definite even when ``n < d``.
    """
    _check_train(data, min_per_class=2)
    X = np.asarray(data.features, dtype=np.float64)
    y = data.labels
    n, d = X.shape

    pos, neg = X[y == 1], X[y == -1]
    prior_pos = pos.shape[0] / n
    mean_pos = pos.mean(axis=0)
    mean_neg = neg.mean(axis=0)

    centered = np.empty_like(X)
    centered[y == 1] = pos - mean_pos
    centered[y == -1] = neg - mean_neg
    pooled = (centered.T @ centered) / n

    scale = np.sqrt(np.diag(pooled))
    scale[scale == 0.0] = 1.0  # constant features: leave their axis alone
    standardized = centered / scale
    pooled_std = pooled / np.outer(scale, scale)

    intensity = _ledoit_wolf_shrinkage(standardized, pooled_std)
    target_std = (float(np.trace(pooled_std)) / d) * np.eye(d)
    cov_std = (1.0 - intensity) * pooled_std + intensity * target_std
    cov = cov_std * np.outer(scale, scale)

    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(
            "shrunk covariance is not positive definite (degenerate sample)"
        ) from exc
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))

    return LdaModel(
        prior_pos=prior_pos,
        mean_pos=mean_pos,
        mean_neg=mean_neg,
        covariance=cov,
        chol_lower=chol,
        shrinkage_intensity=intensity,
        log_det=log_det,
    )


def lda_log_joints(model: LdaModel, X: np.ndarray) -> np.ndarray:
    """Per-class ``log prior + log density`` rows, shape (n, 2).

    Column order follows the class index convention (0 -> label -1).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = X.shape[1]
    const = -0.5 * (d * _LOG_2PI + model.log_det)
    out = np.empty((X.shape[0], 2))
    priors = (1.0 - model.prior_pos, model.prior_pos)
    means = (model.mean_neg, model.mean_pos)
    for idx, (prior, mean) in enumerate(zip(priors, means)):
        z = solve_triangular(model.chol_lower, (X - mean).T, lower=True)
        quad = np.sum(z**2, axis=0)
        out[:, idx] = np.log(max(prior, LOG_FLOOR)) + const - 0.5 * quad
    return out


def lda_log_joint(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """Length-2 vector of per-class log-joint scores for one input."""
    return lda_log_joints(model, np.asarray(x)[None, :])[0]


def softmax_pairs(log_scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of per-class log scores (shift-invariant)."""
    shifted = log_scores - log_scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def lda_posteriors(model: LdaModel, X: np.ndarray) -> np.ndarray:
    """Row-wise posterior pairs: softmax over the two log-joint scores."""
    return softmax_pairs(lda_log_joints(model, X))


def lda_posterior(model: LdaModel, x: np.ndarray) -> np.ndarray:
    return lda_posteriors(model, np.asarray(x)[None, :])[0]


def posteriors(model, X: np.ndarray) -> np.ndarray:
    """Posterior pairs for either model family."""
    if isinstance(model, LogisticModel):
        return logistic_posteriors(model, X)
    if isinstance(model, LdaModel):
        return lda_posteriors(model, X)
    raise ValidationError(f"unsupported model type: {type(model).__name__}")


def predict(model, x: np.ndarray) -> int:
    """Label with the larger posterior; the tie at 0.5 goes to +1."""
    p = posteriors(model, np.asarray(x)[None, :])[0]
    return 1 if p[1] >= p[0] else -1


def accuracy(model, data: Dataset) -> float:
    p = posteriors(model, data.features)
    preds = np.where(p[:, 1] >= p[:, 0], 1, -1)
    return float(np.mean(preds == data.labels))


def serialize_model(model) -> str:
    """JSON text for either model family; floats survive round-trips exactly."""
    if isinstance(model, LogisticModel):
        payload = {
            "kind": "logistic",
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "converged": model.converged,
            "iterations": model.iterations,
        }
    elif isinstance(model, LdaModel):
        payload = {
            "kind": "lda",
            "prior_pos": model.prior_pos,
            "mean_pos": model.mean_pos.tolist(),
            "mean_neg": model.mean_neg.tolist(),
            "chol_lower": model.chol_lower.tolist(),
            "shrinkage_intensity": model.shrinkage_intensity,
            "log_det": model.log_det,
        }
    else:
        raise ValidationError(f"unsupported model type: {type(model).__name__}")
    return json.dumps(payload, indent=1)


def deserialize_model(text: str):
    try:
        payload = json.loads(text)
        kind = payload["kind"]
        if kind == "logistic":
            return LogisticModel(
                weights=np.asarray(payload["weights"], dtype=np.float64),
                bias=float(payload["bias"]),
                converged=bool(payload["converged"]),
                iterations=int(payload["iterations"]),
            )
        if kind == "lda":
            chol = np.asarray(payload["chol_lower"], dtype=np.float64)
            return LdaModel(
                prior_pos=float(payload["prior_pos"]),
                mean_pos=np.asarray(payload["mean_pos"], dtype=np.float64),
                mean_neg=np.asarray(payload["mean_neg"], dtype=np.float64),
                covariance=chol @ chol.T,
                chol_lower=chol,
                shrinkage_intensity=float(payload["shrinkage_intensity"]),
                log_det=2.0 * float(np.sum(np.log(np.diag(chol)))),
            )
        raise ValidationError(f"unknown model kind: {kind!r}")
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed model file: {exc}") from exc
