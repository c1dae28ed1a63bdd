"""Membership scores and the model-based attack.

Threshold scores are scalar functions of a model's output for one sample;
sweeping a threshold over them yields the ROC curve evaluated in
:mod:`mialab.metrics`.  Each score kind carries an orientation declaring
whether larger values look more member-like, so AUROC can be computed
uniformly.

The model-based attack trains a gradient-boosted classifier on
``[output vector || one-hot(true label)]`` rows built from members
(attack label 1) and nonmembers (attack label 0), and scores a held-out
half of each pool.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import InsufficientDataError, ValidationError
from .gbm import fit_gbm, gbm_predict_matrix
from .linear_models import (
    LdaModel,
    LogisticModel,
    LOG_FLOOR,
    lda_log_joints,
    lda_posteriors,
    logistic_posteriors,
)

_NORMALIZATION_TOL = 1e-8


class Orientation(enum.Enum):
    HIGHER_IS_MEMBER = "higher_is_member"
    LOWER_IS_MEMBER = "lower_is_member"


class ScoreKind(enum.Enum):
    MAX_PROB = "max_prob"
    ENTROPY = "entropy"
    LOG_LOSS = "log_loss"
    LDA_LOG_JOINT = "lda_log_joint"
    GBM_PROBS = "gbm_probs"
    GBM_LOGITS = "gbm_logits"

    @property
    def orientation(self) -> Orientation:
        if self in (ScoreKind.ENTROPY, ScoreKind.LOG_LOSS):
            return Orientation.LOWER_IS_MEMBER
        return Orientation.HIGHER_IS_MEMBER

    @property
    def needs_label(self) -> bool:
        return self is ScoreKind.LOG_LOSS


@dataclass(frozen=True)
class AttackScores:
    """Member/nonmember score samples for one score kind."""

    member_scores: np.ndarray
    nonmember_scores: np.ndarray
    kind: ScoreKind
    orientation: Orientation

    def __post_init__(self) -> None:
        for name, arr in (
            ("member_scores", self.member_scores),
            ("nonmember_scores", self.nonmember_scores),
        ):
            if arr.ndim != 1 or arr.size < 1:
                raise ValidationError(f"{name} must be a nonempty vector")
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite values")


def _check_posterior(posteriors: np.ndarray) -> np.ndarray:
    p = np.asarray(posteriors, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ValidationError("posterior must be a vector of class probabilities")
    if not np.isfinite(p).all() or p.min() < -_NORMALIZATION_TOL:
        raise ValidationError("posterior entries must be finite and nonnegative")
    if abs(p.sum() - 1.0) > _NORMALIZATION_TOL:
        raise ValidationError(f"posterior does not sum to 1 (sum={p.sum()!r})")
    return p


def score_max_prob(posteriors: np.ndarray) -> float:
    """Largest class probability; higher looks more member-like."""
    return float(_check_posterior(posteriors).max())


def score_entropy(posteriors: np.ndarray) -> float:
    """Natural-log entropy with 0*log 0 = 0; lower looks more member-like."""
    p = _check_posterior(posteriors)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def score_log_loss(posteriors: np.ndarray, true_label_index: int) -> float:
    """Cross-entropy on the true label; lower looks more member-like."""
    p = _check_posterior(posteriors)
    if not 0 <= true_label_index < p.size:
        raise ValidationError(f"label index {true_label_index} out of range")
    return float(-np.log(max(p[true_label_index], LOG_FLOOR)))


def score_lda_log_joint(log_joint_vector: np.ndarray) -> float:
    """Maximum per-class log-joint score; higher looks more member-like."""
    v = np.asarray(log_joint_vector, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValidationError("log-joint entries must be finite")
    return float(v.max())


def label_indices(labels: np.ndarray) -> np.ndarray:
    """Map domain labels {-1, +1} to class indices {0, 1}."""
    labels = np.asarray(labels)
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValidationError("labels must be -1 or +1")
    return ((labels + 1) // 2).astype(np.intp)


def threshold_scores(
    kind: ScoreKind, posteriors: np.ndarray, label_idx: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized threshold scores for a posterior matrix, one per row."""
    P = np.asarray(posteriors, dtype=np.float64)
    if kind is ScoreKind.MAX_PROB:
        return P.max(axis=1)
    if kind is ScoreKind.ENTROPY:
        terms = np.where(P > 0.0, P * np.log(np.where(P > 0.0, P, 1.0)), 0.0)
        return -terms.sum(axis=1)
    if kind is ScoreKind.LOG_LOSS:
        if label_idx is None:
            raise ValidationError("log_loss needs true labels")
        picked = P[np.arange(P.shape[0]), label_idx]
        return -np.log(np.maximum(picked, LOG_FLOOR))
    raise ValidationError(f"{kind.value} is not a posterior threshold score")


def model_outputs(model, X: np.ndarray, interface: str) -> np.ndarray:
    """Per-sample output vectors of the target under the chosen interface.

    ``probs`` yields posterior pairs for both model families.  ``logits``
    yields the pre-softmax pair: per-class log-joint scores for the
    generative model, and ``(0, w.x + b)`` for logistic regression.  A
    target object may instead provide its own ``output_matrix(X, interface)``.
    """
    if interface not in ("probs", "logits"):
        raise ValidationError(f"interface must be 'probs' or 'logits', got {interface!r}")
    if hasattr(model, "output_matrix"):
        return np.asarray(model.output_matrix(X, interface), dtype=np.float64)
    if isinstance(model, LogisticModel):
        if interface == "probs":
            return logistic_posteriors(model, X)
        z = np.asarray(X, dtype=np.float64) @ model.weights + model.bias
        return np.column_stack([np.zeros_like(z), z])
    if isinstance(model, LdaModel):
        if interface == "probs":
            return lda_posteriors(model, X)
        return lda_log_joints(model, X)
    raise ValidationError(f"unsupported target model: {type(model).__name__}")


def build_attack_features(
    model_output: np.ndarray, true_label_index: int, interface: str
) -> np.ndarray:
    """One attack-model row: ``[output vector || one-hot(true label)]``."""
    v = np.asarray(model_output, dtype=np.float64)
    if v.ndim != 1 or not np.isfinite(v).all():
        raise ValidationError("model output must be a finite vector")
    if interface == "probs":
        _check_posterior(v)
    elif interface != "logits":
        raise ValidationError(f"interface must be 'probs' or 'logits', got {interface!r}")
    if not 0 <= true_label_index < v.size:
        raise ValidationError(f"label index {true_label_index} out of range")
    onehot = np.zeros(v.size)
    onehot[true_label_index] = 1.0
    return np.concatenate([v, onehot])


def _attack_matrix(model, data: Dataset, interface: str) -> np.ndarray:
    outputs = model_outputs(model, data.features, interface)
    idx = label_indices(data.labels)
    onehot = np.zeros_like(outputs)
    onehot[np.arange(outputs.shape[0]), idx] = 1.0
    return np.hstack([outputs, onehot])


def run_gbm_attack(
    target_model,
    member_data: Dataset,
    nonmember_data: Dataset,
    interface: str = "probs",
    split_seed: int = 0,
) -> AttackScores:
    """Train the boosted attack classifier and score held-out samples.

    The larger pool is downsampled to the smaller one's size, each side is
    split 50/50 into attack-train and attack-eval halves (seeded), and the
    returned scores are attack-model probabilities on the eval halves.
    """
    rows_m = _attack_matrix(target_model, member_data, interface)
    rows_n = _attack_matrix(target_model, nonmember_data, interface)
    if min(rows_m.shape[0], rows_n.shape[0]) < 4:
        raise InsufficientDataError("need at least 4 samples per side")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=split_seed, spawn_key=(3,)))
    size = min(rows_m.shape[0], rows_n.shape[0])
    halves = []
    for rows in (rows_m, rows_n):
        keep = rng.permutation(rows.shape[0])[:size]
        shuffled = rows[np.sort(keep)][rng.permutation(size)]
        halves.append((shuffled[: size // 2], shuffled[size // 2 :]))
    (train_m, eval_m), (train_n, eval_n) = halves

    X_train = np.vstack([train_m, train_n])
    y_train = np.concatenate([np.ones(train_m.shape[0]), np.zeros(train_n.shape[0])])
    attack_model = fit_gbm(X_train, y_train, n_estimators=100, max_depth=3, learning_rate=0.1)

    kind = ScoreKind.GBM_PROBS if interface == "probs" else ScoreKind.GBM_LOGITS
    return AttackScores(
        member_scores=gbm_predict_matrix(attack_model, eval_m),
        nonmember_scores=gbm_predict_matrix(attack_model, eval_n),
        kind=kind,
        orientation=Orientation.HIGHER_IS_MEMBER,
    )
