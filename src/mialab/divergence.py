"""Exact divergence computations on finite joint distributions.

Everything here operates on explicit probability tables over a finite
``X x Y`` grid, so total variation, KL, pushforward laws, and the
marginal/conditional decomposition bounds can all be evaluated exactly
(up to float rounding) and certified against each other:

* ``decompose`` splits the joint TV into a marginal part and an expected
  conditional part and reports the resulting sandwich
  ``|TV_X - E TV_cond| <= TV_joint <= TV_X + E TV_cond`` together with the
  KL-based upper bound ``sqrt(KL_X/2) + sqrt(E KL_cond / 2)``.
* ``dominance_probe`` evaluates the coefficient
  ``c(alpha, beta) = log(beta/alpha) / (1 + log(beta/alpha))`` built from
  the conditional likelihood-ratio range, and compares the exact TV of the
  scalar log-joint channel against ``sqrt(max(0, c*KL_X - KL_cond)/2)``.

Conventions: conditionals at marginal-zero points contribute 0 to
expectations taken under the first argument's marginal.  Where the second
distribution has zero marginal mass but the first does not, the conditional
KL term is reported as ``inf`` and the conditional TV term uses a uniform
placeholder row, which keeps every reported bound valid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import UnboundedRatioError, ValidationError

MASS_TOL = 1e-9
_GROUP_ATOL = 1e-9
# most entries one closeness broadcast in _row_channel holds (2 MB per float temporary)
_CLOSE_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class DiscreteJoint:
    """A full joint probability table over ``x_size * y_size`` atoms."""

    table: np.ndarray
    x_size: int
    y_size: int

    def __post_init__(self) -> None:
        t = self.table
        if t.shape != (self.x_size, self.y_size):
            raise ValidationError(f"table shape {t.shape} != ({self.x_size}, {self.y_size})")
        if not np.isfinite(t).all() or t.min() < 0:
            raise ValidationError("table entries must be finite and nonnegative")
        if abs(float(t.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"table mass {t.sum()!r} != 1")

    @classmethod
    def from_array(cls, table) -> "DiscreteJoint":
        t = np.asarray(table, dtype=np.float64)
        if t.ndim != 2:
            raise ValidationError("joint table must be 2-D")
        return cls(table=t, x_size=t.shape[0], y_size=t.shape[1])

    def conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        """``(p(x), p(y|x))``, read-only; a row whose marginal is zero is -1 throughout."""
        return self._conditionals

    @functools.cached_property
    def _conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        px = self.table.sum(axis=1)
        cond = np.divide(self.table, px[:, None], out=np.full_like(self.table, -1.0),
                         where=(px > 0.0)[:, None])
        px.flags.writeable = cond.flags.writeable = False
        return px, cond

    @functools.cached_property
    def log_table(self) -> np.ndarray:
        """``log`` of the table, read-only; zero atoms are ``-inf``."""
        with np.errstate(divide="ignore"):
            logs = np.log(self.table)
        logs.flags.writeable = False
        return logs


@dataclass(frozen=True)
class ScoreChannel:
    """A deterministic map from (x, y) atoms to a finite outcome set."""

    outcomes: np.ndarray
    outcome_size: int

    def __post_init__(self) -> None:
        o = self.outcomes
        if o.ndim != 2 or o.dtype.kind not in "iu":
            raise ValidationError("outcomes must be a 2-D integer array")
        if o.size and (o.min() < 0 or o.max() >= self.outcome_size):
            raise ValidationError("outcome indices out of range")


@dataclass(frozen=True)
class BoundsReport:
    """One decomposition instance; the inequality chain is the certificate."""

    tv_joint: float
    tv_marginal: float
    exp_cond_tv: float
    kl_x: float
    exp_kl_cond: float
    lower: float
    upper: float
    pinsker_upper: float


@dataclass(frozen=True)
class DominanceReport:
    kl_x: float
    exp_kl_cond: float
    alpha: float
    beta: float
    c: float
    condition_holds: bool
    adv_scalar_joint_lb: float
    adv_cond_ub: float
    tv_scalar_joint: float


def _check_mass_vector(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError(f"{name} must be a nonempty vector")
    if not np.isfinite(a).all() or a.min() < 0:
        raise ValidationError(f"{name} entries must be finite and nonnegative")
    if abs(float(a.sum()) - 1.0) > MASS_TOL:
        raise ValidationError(f"{name} mass {a.sum()!r} != 1")
    return a


def tv(p, q) -> float:
    """Total variation distance ``0.5 * sum |p_i - q_i|``."""
    pa, qa = _check_mass_vector(p, "p"), _check_mass_vector(q, "q")
    if pa.size != qa.size:
        raise ValidationError("mass vectors must have equal length")
    return 0.5 * float(np.abs(pa - qa).sum())


def kl(p, q) -> float:
    """``sum p_i log(p_i/q_i)`` with 0 log(0/q) = 0; inf where q vanishes under p."""
    pa, qa = _check_mass_vector(p, "p"), _check_mass_vector(q, "q")
    if pa.size != qa.size:
        raise ValidationError("mass vectors must have equal length")
    support = pa > 0.0
    if np.any(qa[support] == 0.0):
        return math.inf
    # KL >= 0; rounding can leave a tiny negative residue when p ~ q
    return max(0.0, float(np.sum(pa[support] * np.log(pa[support] / qa[support]))))


def _check_same_shape(joint_p: DiscreteJoint, joint_q: DiscreteJoint) -> None:
    if joint_p.table.shape != joint_q.table.shape:
        raise ValidationError("joint tables must have matching shapes")


def decompose(joint_p: DiscreteJoint, joint_q: DiscreteJoint) -> BoundsReport:
    """Exact TV/KL decomposition of a joint pair into marginal and conditional parts."""
    _check_same_shape(joint_p, joint_q)
    (px, p), (qx, q) = joint_p.conditionals(), joint_q.conditionals()
    seen, q_missing = px > 0.0, qx <= 0.0

    tv_joint = 0.5 * float(np.abs(joint_p.table - joint_q.table).sum())
    tv_marginal = 0.5 * float(np.abs(px - qx).sum())
    kl_x = kl(px, qx)

    q_tv = np.where(q_missing[:, None], 1.0 / joint_p.y_size, q)
    tv_rows = np.abs(p - q_tv).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_rows = np.maximum(np.where(p > 0.0, p * np.log(p / q), 0.0).sum(axis=1), 0.0)
    # the builtin sum adds left to right as a per-x loop does; numpy's pairwise sum does not
    exp_cond_tv = float(sum(px[seen] * 0.5 * tv_rows[seen]))
    unbounded = np.any(seen & q_missing) or np.any((p > 0.0) & (q == 0.0))
    exp_kl_cond = math.inf if unbounded else float(sum(px[seen] * kl_rows[seen]))

    pinsker_upper = math.sqrt(kl_x / 2.0) + math.sqrt(exp_kl_cond / 2.0) \
        if math.isfinite(kl_x) and math.isfinite(exp_kl_cond) else math.inf
    return BoundsReport(
        tv_joint=tv_joint,
        tv_marginal=tv_marginal,
        exp_cond_tv=exp_cond_tv,
        kl_x=kl_x,
        exp_kl_cond=exp_kl_cond,
        lower=abs(tv_marginal - exp_cond_tv),
        upper=tv_marginal + exp_cond_tv,
        pinsker_upper=pinsker_upper,
    )


def pushforward(joint: DiscreteJoint, channel: ScoreChannel) -> np.ndarray:
    """Outcome law induced by mapping every (x, y) atom through the channel."""
    if channel.outcomes.shape != joint.table.shape:
        raise ValidationError("channel does not cover the joint's index set")
    out = np.bincount(
        channel.outcomes.ravel(), weights=joint.table.ravel(), minlength=channel.outcome_size
    )
    total = float(out.sum())
    return out / total


def c_coeff(alpha: float, beta: float) -> float:
    """``log(beta/alpha) / (1 + log(beta/alpha))``; zero exactly when alpha == beta."""
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValidationError("alpha and beta must be finite")
    if alpha <= 0.0 or alpha > beta:
        raise ValidationError(f"need 0 < alpha <= beta, got ({alpha!r}, {beta!r})")
    gap = math.log(beta) - math.log(alpha)
    return gap / (1.0 + gap)


def lr_constants(joint_p: DiscreteJoint, joint_q: DiscreteJoint) -> tuple[float, float]:
    """(min, max) of the conditional ratio ``P(y|x)/Q(y|x)`` over supported x; 0/0 is free."""
    _check_same_shape(joint_p, joint_q)
    (px, p), (qx, q) = joint_p.conditionals(), joint_q.conditionals()
    seen = px > 0.0
    no_q, unbounded = seen & (qx <= 0.0), (p > 0.0) & (q == 0.0)
    bad = no_q | unbounded.any(axis=1)
    if bad.any():
        x = int(np.argmax(bad))
        if no_q[x]:
            raise UnboundedRatioError(f"Q has no mass at supported x={x}")
        y = int(np.argmax(unbounded[x]))
        raise UnboundedRatioError(f"conditional ratio unbounded at (x={x}, y={y})")
    defined = seen[:, None] & (q > 0.0)
    ratios = p[defined] / q[defined]
    return float(ratios.min()), float(ratios.max())


def _chain_channel(values: np.ndarray) -> ScoreChannel:
    """Atoms in sorted order open a new outcome wherever the gap to the
    previous value exceeds ``_GROUP_ATOL``; ``-inf`` atoms share one (their
    gap is nan)."""
    flat = values.ravel()
    order = np.argsort(flat, kind="mergesort")
    with np.errstate(invalid="ignore"):
        opens = np.diff(flat[order]) > _GROUP_ATOL
    ids = np.concatenate(([0], np.cumsum(opens, dtype=np.int64)))
    outcomes = ids[np.argsort(order)].reshape(values.shape)
    return ScoreChannel(outcomes=outcomes, outcome_size=int(ids[-1]) + 1)


def _row_channel(rows: np.ndarray) -> ScoreChannel:
    """Each x's outcome is its row's group: the first unlabelled row opens a
    group that takes every unlabelled row close to it.

    Two rows are close when every entry pair has ``|a - b| <= _GROUP_ATOL``
    or ``a == b`` (numpy's closeness test with no relative tolerance), so
    equal infinities are close and nan is close to nothing.  Closeness is
    computed in one broadcast per block of opener rows, against the rows
    from the block on; a block holds as many rows as keep that temporary
    within ``_CLOSE_BLOCK_ELEMENTS`` entries (at least one row), so a small
    table is one block.
    """
    x_size, y_size = rows.shape
    labels = [-1] * x_size
    size = 0
    step = max(1, _CLOSE_BLOCK_ELEMENTS // (x_size * y_size))
    with np.errstate(invalid="ignore"):  # inf - inf
        for start in range(0, x_size, step):
            openers, rest = rows[start:start + step, None, :], rows[None, start:, :]
            close = ((np.abs(openers - rest) <= _GROUP_ATOL) | (openers == rest)).all(axis=2)
            later = list(range(start, x_size))
            for i, near in enumerate(close.tolist(), start):
                if labels[i] < 0:
                    for k in compress(later, near):
                        if labels[k] < 0:
                            labels[k] = size
                    size += 1
    outcomes = np.repeat(np.array(labels, dtype=np.int64)[:, None], y_size, axis=1)
    return ScoreChannel(outcomes=outcomes, outcome_size=size)


def scalar_log_joint_channel(joint: DiscreteJoint) -> ScoreChannel:
    """Channel collapsing (x, y) atoms whose model log-joint values coincide.

    Zero-probability atoms all score ``-inf`` and share one outcome.
    """
    return _chain_channel(joint.log_table)


def log_joint_vector_channel(joint: DiscreteJoint) -> ScoreChannel:
    """Channel exposing the full per-class log-joint vector (a function of x).

    Two x atoms share an outcome only when their whole log rows coincide.
    """
    return _row_channel(joint.log_table)


def softmax_channel(joint: DiscreteJoint) -> ScoreChannel:
    """Channel exposing the posterior row: log rows equal up to an additive
    shift collapse to the same outcome (the per-x normalizer is discarded)."""
    return _row_channel(joint.conditionals()[1])


def dominance_probe(
    joint_p: DiscreteJoint, joint_q: DiscreteJoint, report: BoundsReport | None = None
) -> DominanceReport:
    """Evaluate the scalar-joint dominance condition and both advantage bounds.

    ``condition_holds`` is ``c * KL_X > KL_cond``; when it does, the exact TV
    of the scalar log-joint channel is expected to clear
    ``sqrt(max(0, c*KL_X - KL_cond) / 2)`` while the conditional channel is
    capped by ``sqrt(KL_X/2) + sqrt(KL_cond/2)``.  ``report`` is the pair's
    :func:`decompose`, computed here when not given.
    """
    alpha, beta = lr_constants(joint_p, joint_q)
    report = decompose(joint_p, joint_q) if report is None else report
    c = c_coeff(alpha, beta)
    gap = c * report.kl_x - report.exp_kl_cond
    channel = scalar_log_joint_channel(joint_p)
    tv_scalar = tv(pushforward(joint_p, channel), pushforward(joint_q, channel))
    return DominanceReport(
        kl_x=report.kl_x,
        exp_kl_cond=report.exp_kl_cond,
        alpha=alpha,
        beta=beta,
        c=c,
        condition_holds=bool(gap > 0.0),
        adv_scalar_joint_lb=math.sqrt(max(0.0, gap) / 2.0) if math.isfinite(gap) else math.inf,
        adv_cond_ub=report.pinsker_upper,
        tv_scalar_joint=tv_scalar,
    )


def sample_dirichlet_joint(rng: np.random.Generator, x_size: int, y_size: int) -> DiscreteJoint:
    """Flat-Dirichlet random table: full support almost surely."""
    flat = rng.dirichlet(np.ones(x_size * y_size))
    return DiscreteJoint.from_array(flat.reshape(x_size, y_size))


def certify_bounds(
    trials: int, x_size: int, y_size: int, seed: int = 0
) -> tuple[list[BoundsReport], int]:
    """Run the randomized certification and count the pairs that violate a check.

    Each Dirichlet-random pair must satisfy five checks: (1) the sandwich
    ``lower <= TV_joint <= upper``; where ``pinsker_upper`` is finite, (2)
    ``TV_joint <= pinsker_upper`` and (3) ``upper <= pinsker_upper``; (4) the
    data-processing check, softmax channel TV <= log-joint vector channel TV;
    and, where ``dominance_probe``'s condition holds, (5) scalar log-joint
    channel TV >= ``adv_scalar_joint_lb``.  The expected violation count is 0.
    """
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if x_size < 2 or y_size < 2:
        raise ValidationError("need at least 2 atoms on each axis")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    tol = 1e-12
    reports: list[BoundsReport] = []
    violations = 0
    for _ in range(trials):
        jp = sample_dirichlet_joint(rng, x_size, y_size)
        jq = sample_dirichlet_joint(rng, x_size, y_size)
        rep = decompose(jp, jq)
        reports.append(rep)
        ok = rep.lower <= rep.tv_joint + tol and rep.tv_joint <= rep.upper + tol
        if math.isfinite(rep.pinsker_upper):
            ok = ok and rep.tv_joint <= rep.pinsker_upper + tol
            ok = ok and rep.upper <= rep.pinsker_upper + tol
        vec, soft = log_joint_vector_channel(jp), softmax_channel(jp)
        tv_vec = tv(pushforward(jp, vec), pushforward(jq, vec))
        tv_soft = tv(pushforward(jp, soft), pushforward(jq, soft))
        ok = ok and tv_soft <= tv_vec + tol
        probe = dominance_probe(jp, jq, rep)
        if probe.condition_holds:
            ok = ok and probe.tv_scalar_joint >= probe.adv_scalar_joint_lb - tol
        if not ok:
            violations += 1
    return reports, violations
