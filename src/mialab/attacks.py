"""Membership scores and the model-based attack.

This module alone maps each score kind to the model output it reads.
:func:`model_outputs` computes a target's outputs on one dataset once, and
:func:`membership_scores` scores member and nonmember outputs for one kind:

=================  ===============================================  =========
score kind         score of one row                                 member if
=================  ===============================================  =========
``max_prob``       largest class posterior in ``probs``             higher
``entropy``        natural-log entropy of ``probs``                 lower
``log_loss``       ``-log`` of ``probs`` at the true label          lower
``lda_log_joint``  largest LDA per-class log-joint in ``logits``    higher
``gbm_probs``      boosted attack on ``[probs || one-hot label]``   higher
``gbm_logits``     boosted attack on ``[logits || one-hot label]``  higher
=================  ===============================================  =========

The boosted attack trains a gradient-boosted classifier on rows of members
(attack label 1) and nonmembers (attack label 0) and scores a held-out half
of each pool.  "member if" is the kind's orientation, which AUROC reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset, stream
from .errors import InsufficientDataError, ValidationError
from .gbm import fit_gbm, gbm_predict_matrix
from .linear_models import (
    LdaModel,
    LogisticModel,
    LOG_FLOOR,
    lda_log_joints,
    logistic_margins,
    logistic_posteriors,
    softmax_pairs,
)


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

    def applies_to(self, model) -> bool:
        """Whether this kind can score ``model``: ``lda_log_joint`` needs an LDA target."""
        return self is not ScoreKind.LDA_LOG_JOINT or isinstance(model, LdaModel)


@dataclass(frozen=True)
class AttackScores:
    """Member/nonmember score samples for one score kind, oriented as the kind is."""

    member_scores: np.ndarray
    nonmember_scores: np.ndarray
    kind: ScoreKind

    def __post_init__(self) -> None:
        for name, arr in (
            ("member_scores", self.member_scores),
            ("nonmember_scores", self.nonmember_scores),
        ):
            if arr.ndim != 1 or arr.size < 1:
                raise ValidationError(f"{name} must be a nonempty vector")
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class TargetOutputs:
    """One target's per-row posterior and pre-softmax pairs, and the true label indices."""

    probs: np.ndarray
    logits: np.ndarray
    label_idx: np.ndarray


def label_indices(labels: np.ndarray) -> np.ndarray:
    """Map domain labels {-1, +1} to class indices {0, 1}."""
    labels = np.asarray(labels)
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValidationError("labels must be -1 or +1")
    return ((labels + 1) // 2).astype(np.intp)


def threshold_scores(
    kind: ScoreKind, posteriors: np.ndarray, label_idx: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized threshold scores for an (n, 2) posterior matrix, one per row.

    Row reductions are ufuncs on the two columns, in numpy's left-to-right
    order, so they give the bits of ``max``/``sum`` over ``axis=1`` faster.
    """
    P = np.asarray(posteriors, dtype=np.float64)
    if kind is ScoreKind.MAX_PROB:
        return np.maximum(P[:, 0], P[:, 1])
    if kind is ScoreKind.ENTROPY:
        terms = np.where(P > 0.0, P * np.log(np.where(P > 0.0, P, 1.0)), 0.0)
        return -(terms[:, 0] + terms[:, 1])
    if kind is ScoreKind.LOG_LOSS:
        if label_idx is None:
            raise ValidationError("log_loss needs true labels")
        picked = P[np.arange(P.shape[0]), label_idx]
        return -np.log(np.maximum(picked, LOG_FLOOR))
    raise ValidationError(f"{kind.value} is not a posterior threshold score")


def model_outputs(model, data: Dataset) -> TargetOutputs:
    """The target's outputs on ``data``, computed once for every score kind.

    LDA logits are its log-joints and logistic logits ``(0, w.x + b)``.
    """
    X, label_idx = data.features, label_indices(data.labels)
    if isinstance(model, LdaModel):
        logits = lda_log_joints(model, X)
        return TargetOutputs(softmax_pairs(logits), logits, label_idx)
    if isinstance(model, LogisticModel):
        z = logistic_margins(model, X)
        return TargetOutputs(logistic_posteriors(z),
                             np.column_stack([np.zeros_like(z), z]), label_idx)
    raise ValidationError(f"unsupported target model: {type(model).__name__}")


def accuracy(outputs: TargetOutputs) -> float:
    """Share of rows whose larger posterior is the true label's; ties go to +1."""
    return float(np.mean((outputs.probs[:, 1] >= outputs.probs[:, 0]) == outputs.label_idx))


def membership_scores(
    kind: ScoreKind, member: TargetOutputs, nonmember: TargetOutputs, seed: int = 0
) -> AttackScores:
    """Scores of one kind that applies to the target; ``seed`` seeds the boosted split."""
    if kind in (ScoreKind.GBM_PROBS, ScoreKind.GBM_LOGITS):
        return _gbm_scores(member, nonmember, kind, seed)
    if kind is ScoreKind.LDA_LOG_JOINT:
        sides = [np.maximum(out.logits[:, 0], out.logits[:, 1])
                 for out in (member, nonmember)]
    else:
        sides = [threshold_scores(kind, out.probs, out.label_idx)
                 for out in (member, nonmember)]
    return AttackScores(member_scores=sides[0], nonmember_scores=sides[1], kind=kind)


def _attack_matrix(outputs: TargetOutputs, kind: ScoreKind) -> np.ndarray:
    """Attack-model rows ``[output vector || one-hot(true label)]``."""
    values = outputs.probs if kind is ScoreKind.GBM_PROBS else outputs.logits
    onehot = np.zeros_like(values)
    onehot[np.arange(values.shape[0]), outputs.label_idx] = 1.0
    return np.hstack([values, onehot])


def _gbm_scores(
    member: TargetOutputs, nonmember: TargetOutputs, kind: ScoreKind, seed: int
) -> AttackScores:
    """Train the boosted attack classifier and score held-out samples.

    The larger pool is downsampled to the smaller one's size, each side is
    split 50/50 into attack-train and attack-eval halves (seeded), and the
    returned scores are attack-model probabilities on the eval halves.
    """
    rng = stream("gbm_split", seed)
    rows_m = _attack_matrix(member, kind)
    rows_n = _attack_matrix(nonmember, kind)
    if min(rows_m.shape[0], rows_n.shape[0]) < 4:
        raise InsufficientDataError("need at least 4 samples per side")

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
    # prediction is per row, so one call on both eval halves scores each as two calls would
    probs = gbm_predict_matrix(attack_model, np.vstack([eval_m, eval_n]))

    return AttackScores(member_scores=probs[: eval_m.shape[0]],
                        nonmember_scores=probs[eval_m.shape[0] :], kind=kind)


def run_gbm_attack(
    target_model,
    member_data: Dataset,
    nonmember_data: Dataset,
    interface: str = "probs",
    split_seed: int = 0,
) -> AttackScores:
    """The boosted attack on the target's ``probs`` or ``logits`` interface."""
    kinds = {"probs": ScoreKind.GBM_PROBS, "logits": ScoreKind.GBM_LOGITS}
    if interface not in kinds:
        raise ValidationError(f"interface must be 'probs' or 'logits', got {interface!r}")
    return _gbm_scores(model_outputs(target_model, member_data),
                       model_outputs(target_model, nonmember_data),
                       kinds[interface], split_seed)
