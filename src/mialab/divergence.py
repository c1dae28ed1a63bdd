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
* ``certify`` draws each stack of Dirichlet-random pairs in one sized draw,
  checks every table in it at once, and runs every check on the whole stack
  of pairs, reporting each check's triggered count, violation count and
  minimum slack.

Each formula is coded once, on stacks of tables (leading axes index the
pair, the last axes are the table); the single-pair functions above are
stacks of one.  Every sum keeps the order a single-pair computation uses,
so a pair's numbers do not depend on the stack it was certified in.

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
# most entries one closeness broadcast holds (2 MB per float temporary)
_CLOSE_BLOCK_ELEMENTS = 1 << 18
# most table entries per side in one certification stack (512 KB per table stack)
_STACK_ELEMENTS = 1 << 16
# slack a certified check may show from rounding
_CHECK_TOL = 1e-12
CHECKS = ("sandwich", "tv_joint_le_pinsker", "upper_le_pinsker", "dpi_softmax",
          "scalar_dominance")


def _conditional_stack(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p(x), p(y|x))`` of each table in a stack; a zero-marginal row is -1 throughout."""
    px = tables.sum(axis=-1)
    cond = np.divide(tables, px[..., None], out=np.full_like(tables, -1.0),
                     where=(px > 0.0)[..., None])
    return px, cond


def _check_tables(tables: np.ndarray, x_size: int, y_size: int) -> None:
    """Raise unless each table of the stack ``tables`` is an ``x_size * y_size``
    probability table: finite, nonnegative, with mass within 1e-12 of 1."""
    if tables.shape[1:] != (x_size, y_size):
        raise ValidationError(f"table shape {tables.shape[1:]} != ({x_size}, {y_size})")
    if not np.isfinite(tables).all() or tables.min() < 0:
        raise ValidationError("table entries must be finite and nonnegative")
    mass = tables.sum(axis=(1, 2))
    off = np.abs(mass - 1.0) > 1e-12
    if off.any():
        raise ValidationError(f"table mass {mass[off][0]!r} != 1")


def _log_tables(tables: np.ndarray) -> np.ndarray:
    """``log`` of each table in a stack; zero atoms are ``-inf``."""
    with np.errstate(divide="ignore"):
        return np.log(tables)


@dataclass(frozen=True)
class DiscreteJoint:
    """A full joint probability table over ``x_size * y_size`` atoms."""

    table: np.ndarray
    x_size: int
    y_size: int

    def __post_init__(self) -> None:
        _check_tables(self.table[None], self.x_size, self.y_size)

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
        px, cond = _conditional_stack(self.table)
        px.flags.writeable = cond.flags.writeable = False
        return px, cond

    @functools.cached_property
    def log_table(self) -> np.ndarray:
        """``log`` of the table, read-only; zero atoms are ``-inf``."""
        logs = _log_tables(self.table)
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


@dataclass(frozen=True)
class CheckTally:
    """One certified check over a run: the pairs it applied to, the pairs that
    failed it, and its smallest slack (``inf`` when it applied to none)."""

    name: str
    triggered: int
    violations: int
    min_slack: float


@dataclass(frozen=True)
class Certification:
    """A certification run: one report per pair, the number of pairs failing
    any check, and one tally per entry of ``CHECKS``."""

    reports: list[BoundsReport]
    violations: int
    checks: tuple[CheckTally, ...]


def _check_mass_rows(a: np.ndarray, name: str) -> np.ndarray:
    """``a``, each of whose last-axis rows must be a probability vector."""
    if a.size and (not np.isfinite(a).all() or a.min() < 0):
        raise ValidationError(f"{name} entries must be finite and nonnegative")
    sums = a.sum(axis=-1)
    off = np.abs(sums - 1.0) > MASS_TOL
    if off.any():
        raise ValidationError(f"{name} mass {sums[off][0]!r} != 1")
    return a


def _check_mass_vector(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError(f"{name} must be a nonempty vector")
    return _check_mass_rows(a, name)


def _half_l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``0.5 * sum |a - b|`` along the last axis."""
    return 0.5 * np.abs(a - b).sum(axis=-1)


def tv(p, q) -> float:
    """Total variation distance ``0.5 * sum |p_i - q_i|``."""
    pa, qa = _check_mass_vector(p, "p"), _check_mass_vector(q, "q")
    if pa.size != qa.size:
        raise ValidationError("mass vectors must have equal length")
    return float(_half_l1(pa, qa))


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``p log(p/q)`` entrywise: 0 where p is 0, inf where q vanishes under p."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log(p / q), 0.0)


def kl(p, q) -> float:
    """``sum p_i log(p_i/q_i)`` with 0 log(0/q) = 0; inf where q vanishes under p."""
    pa, qa = _check_mass_vector(p, "p"), _check_mass_vector(q, "q")
    if pa.size != qa.size:
        raise ValidationError("mass vectors must have equal length")
    # KL >= 0; rounding can leave a tiny negative residue when p ~ q
    return max(0.0, float(_kl_terms(pa, qa)[pa > 0.0].sum()))


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`kl` of each row pair along the last axis.

    Rows that are -1 throughout (zero-marginal conditionals) never reach
    :func:`kl`: one in ``p`` gives 0, one in ``q`` gives nan.
    """
    out = np.maximum(_kl_terms(p, q).sum(axis=-1), 0.0)
    # kl sums the support only: once a row holds 8 or more terms, the zeros
    # would move numpy's pairwise grouping
    if p.shape[-1] >= 8:
        for row in zip(*np.nonzero((p == 0.0).any(axis=-1) & (q >= 0.0).all(axis=-1))):
            out[row] = kl(p[row], q[row])
    return out


def _check_same_shape(joint_p: DiscreteJoint, joint_q: DiscreteJoint) -> None:
    if joint_p.table.shape != joint_q.table.shape:
        raise ValidationError("joint tables must have matching shapes")


def _decompose_stack(P, Q, px, p, qx, q) -> np.ndarray:
    """The :class:`BoundsReport` fields of each (T, x, y) table pair, an (8, T) array.

    ``px, p`` and ``qx, q`` are the pairs' :func:`_conditional_stack`.
    """
    seen, q_missing = px > 0.0, qx <= 0.0
    tv_joint = _half_l1(P.reshape(len(P), -1), Q.reshape(len(Q), -1))
    tv_marginal = _half_l1(px, qx)
    kl_x = _kl_rows(_check_mass_rows(px, "p"), _check_mass_rows(qx, "q"))

    q_tv = np.where(q_missing[..., None], 1.0 / P.shape[-1], q)
    tv_rows = np.abs(p - q_tv).sum(axis=-1)
    kl_rows = _kl_rows(p, q)
    # a running sum over x adds left to right, as a per-x loop does; numpy's
    # pairwise sum does not
    exp_cond_tv = np.cumsum(np.where(seen, px * 0.5 * tv_rows, 0.0), axis=-1)[:, -1]
    unbounded = (seen & q_missing).any(axis=-1) | ((p > 0.0) & (q == 0.0)).any(axis=(1, 2))
    exp_kl_cond = np.where(unbounded, np.inf,
                           np.cumsum(np.where(seen, px * kl_rows, 0.0), axis=-1)[:, -1])

    finite = np.isfinite(kl_x) & np.isfinite(exp_kl_cond)
    with np.errstate(invalid="ignore"):
        pinsker_upper = np.where(finite, np.sqrt(kl_x / 2.0) + np.sqrt(exp_kl_cond / 2.0),
                                 np.inf)
    return np.stack([tv_joint, tv_marginal, exp_cond_tv, kl_x, exp_kl_cond,
                     np.abs(tv_marginal - exp_cond_tv), tv_marginal + exp_cond_tv,
                     pinsker_upper])


def decompose(joint_p: DiscreteJoint, joint_q: DiscreteJoint) -> BoundsReport:
    """Exact TV/KL decomposition of a joint pair into marginal and conditional parts."""
    _check_same_shape(joint_p, joint_q)
    (px, p), (qx, q) = joint_p.conditionals(), joint_q.conditionals()
    fields = _decompose_stack(joint_p.table[None], joint_q.table[None],
                              px[None], p[None], qx[None], q[None])
    return BoundsReport(*fields[:, 0].tolist())


def _pushforward_stack(tables: np.ndarray, outcomes: np.ndarray,
                       sizes: np.ndarray) -> np.ndarray:
    """Law of each (T, x, y) table through its channel, a (T, max size) array.

    ``outcomes[t]`` maps the flattened atoms of ``tables[t]`` into its first
    ``sizes[t]`` outcomes; a row is normalised by the sum of those alone.
    """
    count, width = len(tables), int(sizes.max())
    flat = (outcomes + width * np.arange(count)[:, None]).ravel()
    out = np.bincount(flat, weights=tables.reshape(-1),
                      minlength=count * width).reshape(count, width)
    totals = out.sum(axis=-1)
    # padding zeros would move numpy's pairwise grouping of a merged channel's sum
    for t in np.flatnonzero(sizes < width):
        totals[t] = out[t, :sizes[t]].sum()
    return out / totals[:, None]


def pushforward(joint: DiscreteJoint, channel: ScoreChannel) -> np.ndarray:
    """Outcome law induced by mapping every (x, y) atom through the channel."""
    if channel.outcomes.shape != joint.table.shape:
        raise ValidationError("channel does not cover the joint's index set")
    return _pushforward_stack(joint.table[None], channel.outcomes.reshape(1, -1),
                              np.array([channel.outcome_size]))[0]


def _channel_tv_stack(P: np.ndarray, Q: np.ndarray, outcomes: np.ndarray,
                      sizes: np.ndarray) -> np.ndarray:
    """TV between the laws of each (T, x, y) pair through the target's channel."""
    law_p = _check_mass_rows(_pushforward_stack(P, outcomes, sizes), "p")
    law_q = _check_mass_rows(_pushforward_stack(Q, outcomes, sizes), "q")
    out = _half_l1(law_p, law_q)
    for t in np.flatnonzero(sizes < law_p.shape[-1]):
        out[t] = tv(law_p[t, :sizes[t]], law_q[t, :sizes[t]])
    return out


def c_coeff(alpha: float, beta: float) -> float:
    """``log(beta/alpha) / (1 + log(beta/alpha))``; zero exactly when alpha == beta."""
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValidationError("alpha and beta must be finite")
    if alpha <= 0.0 or alpha > beta:
        raise ValidationError(f"need 0 < alpha <= beta, got ({alpha!r}, {beta!r})")
    gap = math.log(beta) - math.log(alpha)
    return gap / (1.0 + gap)


def _lr_range_stack(px, p, qx, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(alpha, beta, unbounded)`` of each (T, x, y) pair's conditional ratio.

    Where ``unbounded[t]`` the range is not finite and ``alpha, beta`` are
    meaningless; :func:`_unbounded_ratio` says why.
    """
    seen = px > 0.0
    bad = (seen & (qx <= 0.0)).any(axis=-1) | ((p > 0.0) & (q == 0.0)).any(axis=(1, 2))
    defined = seen[..., None] & (q > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = p / q
    alpha = np.where(defined, ratios, np.inf).min(axis=(1, 2))
    beta = np.where(defined, ratios, -np.inf).max(axis=(1, 2))
    return alpha, beta, bad


def _unbounded_ratio(px, p, qx, q) -> UnboundedRatioError:
    """Why one pair's conditional ratio has no finite range: the first bad x."""
    no_q, unbounded = (px > 0.0) & (qx <= 0.0), (p > 0.0) & (q == 0.0)
    x = int(np.argmax(no_q | unbounded.any(axis=1)))
    if no_q[x]:
        return UnboundedRatioError(f"Q has no mass at supported x={x}")
    y = int(np.argmax(unbounded[x]))
    return UnboundedRatioError(f"conditional ratio unbounded at (x={x}, y={y})")


def lr_constants(joint_p: DiscreteJoint, joint_q: DiscreteJoint) -> tuple[float, float]:
    """(min, max) of the conditional ratio ``P(y|x)/Q(y|x)`` over supported x; 0/0 is free."""
    _check_same_shape(joint_p, joint_q)
    (px, p), (qx, q) = joint_p.conditionals(), joint_q.conditionals()
    alpha, beta, bad = _lr_range_stack(px[None], p[None], qx[None], q[None])
    if bad[0]:
        raise _unbounded_ratio(px, p, qx, q)
    return float(alpha[0]), float(beta[0])


def _scalar_joint_bound(c, kl_x, exp_kl_cond):
    """``(condition_holds, adv_scalar_joint_lb)`` of :func:`dominance_probe`, elementwise."""
    gap = c * kl_x - exp_kl_cond
    with np.errstate(invalid="ignore"):
        bound = np.where(np.isfinite(gap), np.sqrt(np.maximum(gap, 0.0) / 2.0), np.inf)
    return gap > 0.0, bound


def _chain_stack(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes and outcome counts of the chain channel of each (T, n) row.

    A row's values in sorted order open a new outcome wherever the gap to the
    previous value exceeds ``_GROUP_ATOL``; ``-inf`` values share one (their
    gap is nan).
    """
    order = np.argsort(values, axis=-1, kind="mergesort")
    with np.errstate(invalid="ignore"):
        opens = np.diff(np.take_along_axis(values, order, axis=-1), axis=-1) > _GROUP_ATOL
    ids = np.zeros(values.shape, dtype=np.int64)
    np.cumsum(opens, axis=-1, out=ids[:, 1:])
    outcomes = np.empty_like(ids)
    np.put_along_axis(outcomes, order, ids, axis=-1)
    return outcomes, ids[:, -1] + 1


def _chain_channel(values: np.ndarray) -> ScoreChannel:
    """The chain channel of :func:`_chain_stack` over every entry of ``values``."""
    outcomes, sizes = _chain_stack(values.reshape(1, -1))
    return ScoreChannel(outcomes=outcomes.reshape(values.shape), outcome_size=int(sizes[0]))


def _close(openers: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Rows close entry for entry (broadcast over all but the last axis)."""
    return ((np.abs(openers - rest) <= _GROUP_ATOL) | (openers == rest)).all(axis=-1)


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
            close = _close(rows[start:start + step, None, :], rows[None, start:, :])
            later = list(range(start, x_size))
            for i, near in enumerate(close.tolist(), start):
                if labels[i] < 0:
                    for k in compress(later, near):
                        if labels[k] < 0:
                            labels[k] = size
                    size += 1
    outcomes = np.repeat(np.array(labels, dtype=np.int64)[:, None], y_size, axis=1)
    return ScoreChannel(outcomes=outcomes, outcome_size=size)


def _any_close_rows(rows: np.ndarray) -> np.ndarray:
    """Whether each (T, x, y) table has two distinct rows that are close.

    Blocks of tables, or of one table's opener rows, are compared against
    the rows from the block on, each in one broadcast within
    ``_CLOSE_BLOCK_ELEMENTS`` entries.
    """
    count, x_size, y_size = rows.shape
    found = np.zeros(count, dtype=bool)
    tables = max(1, _CLOSE_BLOCK_ELEMENTS // (x_size * x_size * y_size))
    step = max(1, _CLOSE_BLOCK_ELEMENTS // (tables * x_size * y_size))
    with np.errstate(invalid="ignore"):  # inf - inf
        for first in range(0, count, tables):
            block = rows[first:first + tables]
            for start in range(0, x_size, step):
                close = _close(block[:, start:start + step, None, :], block[:, None, start:, :])
                own = np.arange(close.shape[1])
                close[:, own, own] = False
                found[first:first + tables] |= close.any(axis=(1, 2))
    return found


def _row_channel_stack(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom outcomes and outcome counts of each (T, x, y) table's row channel.

    With no two rows close, :func:`_row_channel` labels the rows 0 to x-1 in
    order, so only tables with a close pair run it.
    """
    count, x_size, y_size = rows.shape
    labels = np.tile(np.arange(x_size, dtype=np.int64), (count, 1))
    sizes = np.full(count, x_size, dtype=np.int64)
    for t in np.flatnonzero(_any_close_rows(rows)):
        channel = _row_channel(rows[t])
        labels[t], sizes[t] = channel.outcomes[:, 0], channel.outcome_size
    return np.repeat(labels, y_size, axis=1), sizes


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
    holds, bound = _scalar_joint_bound(c, report.kl_x, report.exp_kl_cond)
    channel = scalar_log_joint_channel(joint_p)
    tv_scalar = tv(pushforward(joint_p, channel), pushforward(joint_q, channel))
    return DominanceReport(
        kl_x=report.kl_x,
        exp_kl_cond=report.exp_kl_cond,
        alpha=alpha,
        beta=beta,
        c=c,
        condition_holds=bool(holds),
        adv_scalar_joint_lb=float(bound),
        adv_cond_ub=report.pinsker_upper,
        tv_scalar_joint=tv_scalar,
    )


def sample_dirichlet_joint(rng: np.random.Generator, x_size: int, y_size: int,
                           size: int | None = None) -> DiscreteJoint | np.ndarray:
    """Flat-Dirichlet random table: full support almost surely.

    With ``size``, a (size, x, y) array of such tables drawn in one call and
    checked at once as :class:`DiscreteJoint` checks one; ``rng`` yields the
    same tables, and ends in the same state, as ``size`` one-table calls.
    """
    flat = rng.dirichlet(np.ones(x_size * y_size), size=size)
    if size is None:
        return DiscreteJoint.from_array(flat.reshape(x_size, y_size))
    tables = flat.reshape(size, x_size, y_size)
    _check_tables(tables, x_size, y_size)
    return tables


def _certify_stack(tables: np.ndarray):
    """Run every check on a (T, 2, x, y) stack of ``(p, q)`` table pairs.

    Returns the (8, T) :class:`BoundsReport` fields and three (5, T) arrays
    over ``CHECKS``: whether each check applied to each pair, whether it
    failed, and its slack.  Raises the error the first failing pair raises
    in :func:`dominance_probe`.
    """
    count = len(tables)
    P, Q = tables[:, 0], tables[:, 1]
    px, cond = _conditional_stack(tables)
    pair = (px[:, 0], cond[:, 0], px[:, 1], cond[:, 1])
    fields = _decompose_stack(P, Q, *pair)
    tv_joint, _, _, kl_x, exp_kl_cond, lower, upper, pinsker = fields

    alpha, beta, unbounded = _lr_range_stack(*pair)
    c = np.empty(count)
    for t, (a, b) in enumerate(zip(alpha.tolist(), beta.tolist())):
        if unbounded[t]:
            raise _unbounded_ratio(*(part[t] for part in pair))
        c[t] = c_coeff(a, b)
    holds, bound = _scalar_joint_bound(c, kl_x, exp_kl_cond)

    logs = _log_tables(P)
    tv_scalar = _channel_tv_stack(P, Q, *_chain_stack(logs.reshape(count, -1)))
    tv_vec = _channel_tv_stack(P, Q, *_row_channel_stack(logs))
    tv_soft = _channel_tv_stack(P, Q, *_row_channel_stack(cond[:, 0]))

    tol = _CHECK_TOL
    finite = np.isfinite(pinsker)
    always = np.ones(count, dtype=bool)
    triggered = np.stack([always, finite, finite, always, holds])
    with np.errstate(invalid="ignore"):  # inf - inf where a check does not apply
        slack = np.stack([np.minimum(tv_joint - lower, upper - tv_joint), pinsker - tv_joint,
                          pinsker - upper, tv_vec - tv_soft, tv_scalar - bound])
    passed = np.stack([(lower <= tv_joint + tol) & (tv_joint <= upper + tol),
                       tv_joint <= pinsker + tol, upper <= pinsker + tol,
                       tv_soft <= tv_vec + tol, tv_scalar >= bound - tol])
    return fields, triggered, triggered & ~passed, slack


def _certify_chunks(chunks) -> Certification:
    """Certify each (T, 2, x, y) stack of ``chunks`` in turn and tally the checks."""
    reports: list[BoundsReport] = []
    violations = 0
    triggered = np.zeros(len(CHECKS), dtype=np.int64)
    failed = np.zeros(len(CHECKS), dtype=np.int64)
    min_slack = np.full(len(CHECKS), np.inf)
    for tables in chunks:
        fields, fired, violated, slack = _certify_stack(tables)
        reports.extend(BoundsReport(*row) for row in fields.T.tolist())
        violations += int(violated.any(axis=0).sum())
        triggered += fired.sum(axis=1)
        failed += violated.sum(axis=1)
        min_slack = np.minimum(min_slack, np.where(fired, slack, np.inf).min(axis=1))
    checks = tuple(CheckTally(name, int(n), int(v), float(s))
                   for name, n, v, s in zip(CHECKS, triggered, failed, min_slack))
    return Certification(reports=reports, violations=violations, checks=checks)


def _dirichlet_chunks(rng: np.random.Generator, trials: int, x_size: int, y_size: int):
    """Stacks of ``trials`` Dirichlet pairs; each stack's tables are drawn
    p, q, p, q, ... in one sized draw."""
    per_chunk = max(1, _STACK_ELEMENTS // (x_size * y_size))
    for start in range(0, trials, per_chunk):
        count = min(per_chunk, trials - start)
        tables = sample_dirichlet_joint(rng, x_size, y_size, size=2 * count)
        yield tables.reshape(count, 2, x_size, y_size)


def certify(trials: int, x_size: int, y_size: int, seed: int = 0) -> Certification:
    """Run the randomized certification and tally each check over the pairs.

    Each Dirichlet-random pair must satisfy five checks: (1) the sandwich
    ``lower <= TV_joint <= upper``; where ``pinsker_upper`` is finite, (2)
    ``TV_joint <= pinsker_upper`` and (3) ``upper <= pinsker_upper``; (4) the
    data-processing check, softmax channel TV <= log-joint vector channel TV;
    and, where ``dominance_probe``'s condition holds, (5) scalar log-joint
    channel TV >= ``adv_scalar_joint_lb``.  A check fails when it misses by
    more than 1e-12; its slack is the margin by which it holds (negative
    when it misses).  The expected violation count is 0.
    """
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if x_size < 2 or y_size < 2:
        raise ValidationError("need at least 2 atoms on each axis")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    return _certify_chunks(_dirichlet_chunks(rng, trials, x_size, y_size))


def certify_bounds(
    trials: int, x_size: int, y_size: int, seed: int = 0
) -> tuple[list[BoundsReport], int]:
    """:func:`certify`'s reports and the number of pairs that violate any check."""
    result = certify(trials, x_size, y_size, seed=seed)
    return result.reports, result.violations
