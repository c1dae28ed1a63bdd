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

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import DataError, DegenerateDataError, ValidationError, integer, real

LOG_FLOOR = 1e-300  # probabilities are clamped here only where logs are taken

_LOG_2PI = float(np.log(2.0 * np.pi))
# most whitened entries one quadratic pass holds (128 KB per float temporary)
_QUAD_BLOCK_ELEMENTS = 1 << 14


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
    chol_lower: np.ndarray
    shrinkage_intensity: float
    log_det: float

    @property
    def d(self) -> int:
        return self.mean_pos.size

    @functools.cached_property
    def whitener(self) -> np.ndarray:
        """``L^-1``, lower-triangular: one d x d solve per model, shared by every scoring call."""
        import scipy.linalg
        return scipy.linalg.solve_triangular(self.chol_lower, np.eye(self.d), lower=True)


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
    Finite features near the float limit overflow the margins or the
    gradient; that raises ``DataError`` instead of steering the optimizer.
    """
    import scipy.special
    n, d = X.shape
    w, b = theta[:d], theta[d]
    margins = np.clip(y * (X @ w + b), -690.0, 690.0)
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    coef = -y * scipy.special.expit(-margins) / n
    grad = np.empty(d + 1)
    grad[:d] = X.T @ coef
    grad[d] = coef.sum()
    if not (math.isfinite(loss) and np.isfinite(grad).all()):
        raise DataError("logistic loss or gradient is not finite (features too large to fit)")
    return loss, grad


def fit_logistic(data: Dataset, tol: float = 1e-8, max_iter: int = 10_000) -> LogisticModel:
    """Fit unregularized logistic regression by L-BFGS-B from a zero start.

    ``converged`` records whether the gradient infinity-norm at the returned
    point is <= ``tol``.  Separable data may exhaust ``max_iter`` instead;
    that is recorded, not raised.  Features so large that the loss or its
    gradient overflows raise ``DataError``.
    """
    import scipy.optimize
    max_iter = integer("max_iter", max_iter, 1)
    real("tol", tol, lambda v: math.isfinite(v) and v > 0.0, "be finite and > 0")
    _check_train(data)
    X = np.asarray(data.features, dtype=np.float64)
    y = data.labels.astype(np.float64)
    d = X.shape[1]

    # The objective raises DataError where it overflows, so numpy's warnings are moot.
    with np.errstate(over="ignore", invalid="ignore"):
        res = scipy.optimize.minimize(
            _logistic_objective,
            np.zeros(d + 1),
            args=(X, y),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "maxfun": 50 * max_iter, "ftol": 1e-16, "gtol": tol},
        )
    return LogisticModel(
        weights=res.x[:d].copy(),
        bias=float(res.x[d]),
        converged=bool(np.max(np.abs(res.jac)) <= tol),  # res.jac: the gradient at res.x
        iterations=int(res.nit),
    )


def logistic_margins(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Row-wise margins ``w.x + b``, shape (n,)."""
    return np.asarray(X, dtype=np.float64) @ model.weights + model.bias


def logistic_posteriors(margins: np.ndarray) -> np.ndarray:
    """Posterior pairs ``(P(-1|x), P(+1|x))`` of logistic margins, shape (n, 2)."""
    import scipy.special
    return np.column_stack([scipy.special.expit(-margins), scipy.special.expit(margins)])


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
    # Finite features near the float limit overflow these sums; the checks
    # below turn that into a DataError rather than a model full of inf/nan.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_pos = pos.mean(axis=0)
        mean_neg = neg.mean(axis=0)
        if not np.isfinite(np.concatenate([mean_pos, mean_neg])).all():
            raise DataError("class means are not finite (features too large to average)")

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
    if not np.isfinite(cov).all():
        raise DataError("shrunk covariance is not finite (features too large to square)")

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
        chol_lower=chol,
        shrinkage_intensity=intensity,
        log_det=log_det,
    )


def lda_log_joints(model: LdaModel, X: np.ndarray) -> np.ndarray:
    """Per-class ``log prior + log density`` rows, shape (n, 2).

    Column order follows the class index convention (0 -> label -1).

    With ``L`` the Cholesky factor and ``c = (mu_- + mu_+)/2`` the midpoint
    of the class means, the Mahalanobis term of class ``k`` is
    ``|W (x - c) - W (mu_k - c)|^2`` with ``W = L^-1``, the model's cached
    :attr:`LdaModel.whitener`.  The rows are whitened by one triangular
    multiply (BLAS ``trmm``), which does half the flops of a dense GEMM
    with ``W`` and runs several times faster than a triangular solve with
    ``L``; the class shifts take one d x 2 product.  Centring at ``c`` is
    what keeps this exact: whitening raw ``x`` and subtracting ``W mu_k``
    cancels two large vectors when every feature carries a common offset,
    and loses the quadratic form to rounding.  For the same reason the
    quadratic stays ``(z - shift)^2`` rather than ``|z|^2 - 2 z.shift +
    |shift|^2``.

    The two quadratic passes run over column blocks of ``z`` of at most
    ``_QUAD_BLOCK_ELEMENTS`` entries, so their temporaries stay cache-sized;
    each column still sums its own squares in one reduction, so the bits
    do not depend on the block.  The centred copy and the TRMM stay one
    whole-matrix call: OpenBLAS ``dtrmm`` rounds a column differently
    depending on how many columns the call holds.  At one BLAS thread,
    whitening 1-1199 copied columns differed from the same columns of the
    whole 4000-column call at 32 of 80 dimensions tried between 1 and 333
    (d = 33, 100 and 255 among them; never at d = 16, 64 or 256), so
    blocking the TRMM would move output bytes.

    Rows that are not finite once centred raise ``DataError``.
    """
    import scipy.linalg.blas
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = X.shape[1]
    const = -0.5 * (d * _LOG_2PI + model.log_det)
    means = np.column_stack([model.mean_neg, model.mean_pos])
    center = 0.5 * (model.mean_neg + model.mean_pos)
    centered = (X - center).T  # F-contiguous d x n, a fresh array trmm may overwrite
    if not np.isfinite(centered).all():
        raise DataError("rows are not finite once centred at the class-mean midpoint")
    z = scipy.linalg.blas.dtrmm(1.0, model.whitener, centered, lower=1, overwrite_b=1)
    shifts = model.whitener @ (means - center[:, None])
    logs = [np.log(max(prior, LOG_FLOOR)) + const
            for prior in (1.0 - model.prior_pos, model.prior_pos)]
    out = np.empty((X.shape[0], 2))
    step = max(1, _QUAD_BLOCK_ELEMENTS // d)
    for start in range(0, X.shape[0], step):
        block = z[:, start:start + step]
        for idx in (0, 1):
            quad = np.sum((block - shifts[:, idx, None]) ** 2, axis=0)
            out[start:start + step, idx] = logs[idx] - 0.5 * quad
    return out


def softmax_pairs(log_scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of per-class log-score pairs, shape (n, 2) (shift-invariant).

    Each row reduction is one ufunc on the two columns: the bits of
    ``max``/``sum`` over ``axis=1``, without numpy's slow path for rows of two.
    """
    shifted = log_scores - np.maximum(log_scores[:, 0], log_scores[:, 1])[:, None]
    e = np.exp(shifted)
    return e / (e[:, 0] + e[:, 1])[:, None]


def _number(value, name: str) -> float:
    # float() would take the string "0.1" and True, and neither is a JSON number
    if type(value) not in (int, float):
        raise ValidationError(f"malformed model file: {name} must be a JSON number, "
                              f"got {value!r}")
    return float(value)


def _numbers(values, name: str) -> np.ndarray:
    if not isinstance(values, list):
        raise ValidationError(f"malformed model file: {name} must be a list of JSON numbers, "
                              f"got {type(values).__name__}")
    return np.array([_number(v, f"each entry of {name}") for v in values], dtype=np.float64)


def _rows(rows, name: str) -> np.ndarray:
    if not isinstance(rows, list):
        raise ValidationError(f"malformed model file: {name} must be a list of rows, "
                              f"got {type(rows).__name__}")
    return np.array([_numbers(row, f"row {i} of {name}") for i, row in enumerate(rows)],
                    dtype=np.float64)


# bool("false") is True and int(3.7) is 3, so neither reader converts
def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"malformed model file: {name} must be a JSON boolean, "
                              f"got {value!r}")
    return value


def _count(value, name: str) -> int:
    if type(value) is not int or value < 0:
        raise ValidationError(f"malformed model file: {name} must be a nonnegative JSON "
                              f"integer, got {value!r}")
    return value


# a model file holds exactly "kind" and its kind's fields, in this order, each read by its reader
_MODEL_FILES = {
    "logistic": (LogisticModel, {"weights": _numbers, "bias": _number, "converged": _flag,
                                 "iterations": _count}),
    "lda": (LdaModel, {"prior_pos": _number, "mean_pos": _numbers, "mean_neg": _numbers,
                       "chol_lower": _rows, "shrinkage_intensity": _number, "log_det": _number}),
}


def serialize_model(model) -> str:
    """JSON text for either model family; floats survive round-trips exactly."""
    for kind, (cls, fields) in _MODEL_FILES.items():
        if isinstance(model, cls):
            payload = {"kind": kind}
            for name in fields:
                value = getattr(model, name)
                payload[name] = value.tolist() if isinstance(value, np.ndarray) else value
            return json.dumps(payload, indent=1)
    raise ValidationError(f"unsupported model type: {type(model).__name__}")


def deserialize_model(text: str):
    """Model from :func:`serialize_model` text, checked before any use."""
    try:
        payload = json.loads(text)
        kind = payload["kind"]
        if not isinstance(kind, str) or kind not in _MODEL_FILES:
            raise ValidationError(f"unknown model kind: {kind!r}")
        cls, fields = _MODEL_FILES[kind]
        unknown = sorted(set(payload) - {"kind", *fields})
        if unknown:
            raise ValidationError(f"malformed model file: keys {unknown} are not defined "
                                  f"for kind {kind!r}")
        model = cls(**{name: read(payload[name], name) for name, read in fields.items()})
        if cls is LogisticModel:
            if not model.weights.size \
                    or not np.isfinite(np.append(model.weights, model.bias)).all():
                raise ValidationError("weights must be a nonempty finite vector, bias finite")
            return model
        mean_pos, mean_neg, chol = model.mean_pos, model.mean_neg, model.chol_lower
        d = mean_pos.size
        if not 0.0 < model.prior_pos < 1.0:
            raise ValidationError(f"prior_pos must lie in (0, 1), got {model.prior_pos!r}")
        # fit_lda's intensity is a ratio in [0, 1]; NaN fails both comparisons
        if not 0.0 <= model.shrinkage_intensity <= 1.0:
            raise ValidationError("malformed model file: shrinkage_intensity must lie in "
                                  f"[0, 1], got {model.shrinkage_intensity!r}")
        if not d or (mean_pos.shape, mean_neg.shape, chol.shape) != ((d,), (d,), (d, d)):
            raise ValidationError("need means of one length d and a d x d chol_lower, "
                                  f"got {mean_pos.shape}, {mean_neg.shape}, {chol.shape}")
        if not (np.isfinite(np.concatenate([mean_pos, mean_neg, chol.ravel()])).all()
                and not np.triu(chol, 1).any() and np.all(np.diag(chol) > 0.0)):
            raise ValidationError("means and chol_lower must be finite, and chol_lower "
                                  "lower-triangular with a positive diagonal")
        # the model carries the log_det chol_lower gives; the file's must agree with it
        checked = LdaModel(model.prior_pos, mean_pos, mean_neg, chol, model.shrinkage_intensity,
                           2.0 * float(np.sum(np.log(np.diag(chol)))))
        with np.errstate(over="ignore", invalid="ignore"):
            log_joints = lda_log_joints(checked, np.vstack([mean_neg, mean_pos]))
        if not np.isfinite(log_joints).all():
            raise ValidationError("malformed model file: log-joints at the model's means "
                                  "are not finite (chol_lower is too small)")
        if not math.isclose(model.log_det, checked.log_det, rel_tol=1e-9):
            raise ValidationError(f"malformed model file: log_det {model.log_det!r} disagrees "
                                  f"with chol_lower's {checked.log_det!r}")
        return checked
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise ValidationError(f"malformed model file: {exc}") from exc
