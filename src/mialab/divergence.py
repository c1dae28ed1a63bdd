"""Exact divergence computations on finite joint distributions.

Everything here operates on explicit probability tables over a finite
``X x Y`` grid, so total variation, KL, pushforward laws, and the
marginal/conditional decomposition bounds can all be evaluated exactly
(up to float rounding) and certified against each other.

``certify`` draws each stack of Dirichlet-random ``(p, q)`` pairs in one
sized draw, checks every table in it at once, and runs one kernel pass
over the stack.  The pass computes each pair's conditional table, the
``log`` of its target table and where its ratio is unbounded once, and
shares them; every stage takes a stack (leading axis: the pair):

* ``decompose`` splits the joint TV into a marginal part and an expected
  conditional part, giving the sandwich
  ``|TV_X - E TV_cond| <= TV_joint <= TV_X + E TV_cond`` together with the
  KL-based upper bound ``sqrt(KL_X/2) + sqrt(E KL_cond / 2)``.
* ``dominance_probe`` takes each pair's coefficient
  ``c(alpha, beta) = log(beta/alpha) / (1 + log(beta/alpha))`` from
  ``c_coeff`` of its conditional likelihood-ratio range, and gives the bound
  ``sqrt(max(0, c*KL_X - E KL_cond)/2)`` that the exact TV of the scalar
  log-joint channel must clear where ``c*KL_X > E KL_cond``.
* ``log_joint_vector_channel`` and ``softmax_channel`` group each target's
  x atoms by their log-joint row and by their posterior row.  Close rows
  share a chain of their first entries (the scalar channel's sort), so only
  a table whose first column chains two rows together runs the greedy
  grouping.
* ``pushforward`` gives the law of both tables of a pair through the
  scalar channel where the dominance bound applies, and through both row
  channels where column 0 chains two rows (elsewhere check 4's slack is
  exactly 0).

The pass reports each check's triggered count, violation count and minimum
slack.  Every sum keeps the order a single-pair computation uses, so a
pair's numbers do not depend on the stack it was certified in; the tests
hold an independent per-pair oracle.  The stages trust their stack and
check nothing again: ``certify`` checks each table once, where it is drawn.

Conventions: conditionals at marginal-zero points contribute 0 to
expectations taken under the first argument's marginal.  Where the second
distribution has zero marginal mass but the first does not, the conditional
KL term is reported as ``inf`` and the conditional TV term uses a uniform
placeholder row, which keeps every reported bound valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import stream
from .errors import DataError, UnboundedRatioError, ValidationError, integer

_GROUP_ATOL = 1e-9
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
    if tables.size and (not np.isfinite(tables).all() or tables.min() < 0):
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


def _half_l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``0.5 * sum |a - b|`` along the last axis."""
    return 0.5 * np.abs(a - b).sum(axis=-1)


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``p log(p/q)`` entrywise: 0 where p is 0, inf where q vanishes under p."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log(p / q), 0.0)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL divergence ``sum p log(p/q)`` of each row pair along the last axis,
    with 0 log(0/q) = 0, inf where q vanishes under p, and rounding's
    negative residue clipped to 0.

    A row that is -1 throughout (a zero-marginal conditional) gives 0 in
    ``p`` and nan in ``q``.
    """
    out = np.maximum(_kl_terms(p, q).sum(axis=-1), 0.0)
    # a row's sum runs over its support: once a row holds 8 or more terms,
    # its zeros would move numpy's pairwise grouping
    if p.shape[-1] >= 8:
        for row in zip(*np.nonzero((p == 0.0).any(axis=-1) & (q >= 0.0).all(axis=-1))):
            support = p[row] > 0.0
            out[row] = max(0.0, _kl_terms(p[row][support], q[row][support]).sum())
    return out


def decompose(P, Q, px, p, qx, q, unbounded) -> np.ndarray:
    """The :class:`BoundsReport` fields of each (T, x, y) table pair, an (8, T) array.

    The exact TV/KL decomposition of each pair into marginal and conditional
    parts; ``px, p`` and ``qx, q`` are the pairs' :func:`_conditional_stack`
    and ``unbounded`` their :func:`_unbounded_rows`.
    """
    seen, q_missing = px > 0.0, qx <= 0.0
    tv_joint = _half_l1(P.reshape(len(P), -1), Q.reshape(len(Q), -1))
    tv_marginal = _half_l1(px, qx)
    kl_x = _kl_rows(px, qx)

    q_tv = np.where(q_missing[..., None], 1.0 / P.shape[-1], q)
    tv_rows = np.abs(p - q_tv).sum(axis=-1)
    kl_rows = _kl_rows(p, q)
    # a running sum over x adds left to right, as a per-x loop does; numpy's
    # pairwise sum does not
    exp_cond_tv = np.cumsum(np.where(seen, px * 0.5 * tv_rows, 0.0), axis=-1)[:, -1]
    exp_kl_cond = np.where(unbounded.any(axis=-1), np.inf,
                           np.cumsum(np.where(seen, px * kl_rows, 0.0), axis=-1)[:, -1])

    finite = np.isfinite(kl_x) & np.isfinite(exp_kl_cond)
    with np.errstate(invalid="ignore"):
        pinsker_upper = np.where(finite, np.sqrt(kl_x / 2.0) + np.sqrt(exp_kl_cond / 2.0),
                                 np.inf)
    return np.array([tv_joint, tv_marginal, exp_cond_tv, kl_x, exp_kl_cond,
                     np.abs(tv_marginal - exp_cond_tv), tv_marginal + exp_cond_tv,
                     pinsker_upper])


def pushforward(tables: np.ndarray, channels) -> list[np.ndarray]:
    """Law of both tables of each (T, 2, x, y) pair through each channel.

    A channel is ``(outcomes, sizes)``: ``outcomes[t]`` maps the flattened
    atoms of pair ``t``'s tables into its first ``sizes[t]`` outcomes.  Each
    channel's laws are a (T, 2, max size) array, each row normalised by the
    sum of its first ``sizes[t]`` entries alone.
    """
    count = len(tables)
    weights = tables.reshape(-1)
    rows = np.arange(2 * count).reshape(count, 2, 1)
    laws = []
    for outcomes, sizes in channels:
        width = int(sizes.max())
        flat = (outcomes[:, None, :] + width * rows).ravel()
        out = np.bincount(flat, weights=weights,
                          minlength=2 * count * width).reshape(count, 2, width)
        totals = out.sum(axis=-1)
        # padding zeros would move numpy's pairwise grouping of a merged channel's sum
        for t in np.flatnonzero(sizes < width):
            totals[t] = out[t, :, :sizes[t]].sum(axis=-1)
        laws.append(out / totals[..., None])
    return laws


def _law_tv(laws: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """TV between the two laws of each pair in one :func:`pushforward` result."""
    out = _half_l1(laws[:, 0], laws[:, 1])
    for t in np.flatnonzero(sizes < laws.shape[-1]):
        out[t] = _half_l1(laws[t, 0, :sizes[t]], laws[t, 1, :sizes[t]])
    return out


def c_coeff(alpha: float, beta: float) -> float:
    """``log(beta/alpha) / (1 + log(beta/alpha))``; zero exactly when alpha == beta."""
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValidationError("alpha and beta must be finite")
    if alpha <= 0.0 or alpha > beta:
        raise ValidationError(f"need 0 < alpha <= beta, got ({alpha!r}, {beta!r})")
    gap = math.log(beta) - math.log(alpha)
    return gap / (1.0 + gap)


def _lr_range_stack(px, p, qx, q) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha, beta)``: the range of each (T, x, y) pair's conditional ratio
    ``P(y|x)/Q(y|x)`` over supported x, where 0/0 is free.  It is meaningless
    where the ratio is unbounded (:func:`_unbounded_rows`)."""
    defined = (px > 0.0)[..., None] & (q > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = p / q
    return (np.where(defined, ratios, np.inf).min(axis=(1, 2)),
            np.where(defined, ratios, -np.inf).max(axis=(1, 2)))


def _unbounded_rows(px, p, qx, q) -> np.ndarray:
    """Whether the conditional ratio ``P(y|x)/Q(y|x)`` is unbounded at each x of
    a pair's (or a stack's) :func:`_conditional_stack`: Q has no mass at a
    supported x, or ``Q(y|x)`` vanishes where ``P(y|x)`` does not."""
    return ((px > 0.0) & (qx <= 0.0)) | ((p > 0.0) & (q == 0.0)).any(axis=-1)


def _unbounded_ratio(px, p, qx, q) -> UnboundedRatioError:
    """Why one pair's conditional ratio has no finite range: the first bad x."""
    x = int(np.argmax(_unbounded_rows(px, p, qx, q)))
    if qx[x] <= 0.0:  # q[x] is -1 here, so x is unbounded only where P supports it
        return UnboundedRatioError(f"Q has no mass at supported x={x}")
    y = int(np.argmax((p[x] > 0.0) & (q[x] == 0.0)))
    return UnboundedRatioError(f"conditional ratio unbounded at (x={x}, y={y})")


def dominance_probe(pair, kl_x, exp_kl_cond, unbounded):
    """``(holds, bound)`` of the scalar-joint dominance check, per pair.

    ``pair`` is ``(px, p, qx, q)``, the pairs' :func:`_conditional_stack`,
    and ``unbounded`` their :func:`_unbounded_rows`; each pair's ``c`` is
    :func:`c_coeff` of the range of its conditional ratio.  ``holds`` is
    ``c * KL_X > E KL_cond``; where it does, the exact TV of the scalar
    log-joint channel is expected to clear
    ``bound = sqrt(max(0, c*KL_X - E KL_cond) / 2)``.  Raises the error of
    the first pair whose ratio is unbounded or whose ``c`` is undefined.
    """
    alpha, beta = _lr_range_stack(*pair)
    unbounded = unbounded.any(axis=-1)
    # every pair before the first unbounded one gets c_coeff, which may raise first
    first = int(np.argmax(unbounded)) if unbounded.any() else len(unbounded)
    c = np.array([c_coeff(a, b) for a, b in zip(alpha[:first].tolist(), beta[:first].tolist())])
    if first < len(unbounded):
        raise _unbounded_ratio(*(part[first] for part in pair))
    gap = c * kl_x - exp_kl_cond
    with np.errstate(invalid="ignore"):
        bound = np.where(np.isfinite(gap), np.sqrt(np.maximum(gap, 0.0) / 2.0), np.inf)
    return gap > 0.0, bound


def _chain_stack(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes and outcome counts of the chain channel of each (T, n) row.

    A row's values in sorted order open a new outcome wherever the gap to the
    previous value exceeds ``_GROUP_ATOL``; ``-inf`` values share one (their
    gap is nan).  Over a target's log table this is its scalar log-joint
    channel: atoms whose log-joint values coincide share an outcome, and
    zero atoms all score ``-inf``.
    """
    order = np.argsort(values, axis=-1, kind="mergesort")
    rows = np.arange(len(values))[:, None]
    with np.errstate(invalid="ignore"):
        opens = np.diff(values[rows, order], axis=-1) > _GROUP_ATOL
    ids = np.zeros(values.shape, dtype=np.int64)
    np.cumsum(opens, axis=-1, out=ids[:, 1:])
    outcomes = np.empty_like(ids)
    outcomes[rows, order] = ids
    return outcomes, ids[:, -1] + 1


def _close(openers: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Rows close entry for entry (broadcast over all but the last axis)."""
    return ((np.abs(openers - rest) <= _GROUP_ATOL) | (openers == rest)).all(axis=-1)


def _row_channel_stack(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom outcomes and outcome counts of each (T, x, y) table's row channel.

    In each table the first unlabelled row opens a group that takes every
    unlabelled row close to it.  Two rows are close when every entry pair
    has ``|a - b| <= _GROUP_ATOL`` or ``a == b`` (numpy's closeness test with
    no relative tolerance), so equal infinities are close and nan is close
    to nothing.  Close rows share a :func:`_chain_stack` chain of column 0:
    every sorted gap between their first entries is at most theirs.  So a
    table with one chain per row has no close pair and keeps the labels 0
    to x-1; in the other tables an opener alone in its chain takes its own
    label, and any other opener tests only the unlabelled rows of its chain.
    """
    count, x_size, y_size = rows.shape
    labels = np.tile(np.arange(x_size, dtype=np.int64), (count, 1))
    chains, sizes = _chain_stack(rows[..., 0])
    for t in np.flatnonzero(sizes < x_size):
        group, table, chain, size = labels[t], rows[t], chains[t], 0
        members = np.bincount(chain)
        group[:] = -1
        for opener in range(x_size):
            if group[opener] < 0:
                if members[chain[opener]] > 1:
                    rest = np.flatnonzero((group < 0) & (chain == chain[opener]))
                    with np.errstate(invalid="ignore"):  # inf - inf
                        group[rest[_close(table[opener], table[rest])]] = size
                group[opener] = size  # a row holding nan is close to nothing
                size += 1
        sizes[t] = size
    return np.repeat(labels, y_size, axis=1), sizes


def log_joint_vector_channel(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel exposing the full per-class log-joint vector (a function of x),
    for each (T, x, y) stack of log tables: per-atom outcomes and outcome counts.

    Two x atoms share an outcome only when their whole log rows coincide.
    """
    return _row_channel_stack(logs)


def softmax_channel(cond: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel exposing the posterior row, for each (T, x, y) stack of
    conditional tables: log rows equal up to an additive shift collapse to
    the same outcome (the per-x normalizer is discarded)."""
    return _row_channel_stack(cond)


def sample_dirichlet_joint(rng: np.random.Generator, x_size: int, y_size: int,
                           size: int) -> np.ndarray:
    """A (size, x, y) stack of flat-Dirichlet random tables (full support
    almost surely), drawn in one call and checked at once.

    ``rng`` yields the same tables, and ends in the same state, as ``size``
    one-table draws.  A table size numpy cannot allocate raises ``DataError``.
    """
    try:
        flat = rng.dirichlet(np.ones(x_size * y_size), size=size)
    except (ValueError, MemoryError) as exc:
        raise DataError(f"cannot allocate {x_size} x {y_size} tables: {exc}") from None
    tables = flat.reshape(size, x_size, y_size)
    _check_tables(tables, x_size, y_size)
    return tables


def _certify_stack(tables: np.ndarray):
    """Run every check on a (T, 2, x, y) stack of ``(p, q)`` table pairs.

    Returns the (8, T) :class:`BoundsReport` fields and three (5, T) arrays
    over ``CHECKS``: whether each check applied to each pair, whether it
    failed, and its slack.  Raises the error :func:`dominance_probe` raises
    for the first failing pair.  Only the pairs check 5 applies to go
    through the scalar channel.  Only the pairs with a column-0 chain of
    two rows go through the row channels: elsewhere both row channels keep
    every row, so their laws are the same and check 4's slack is exactly 0,
    which ``tv_vec = tv_soft`` gives without them.
    """
    count, _, x_size, _ = tables.shape
    P, Q = tables[:, 0], tables[:, 1]
    px, cond = _conditional_stack(tables)
    pair = (px[:, 0], cond[:, 0], px[:, 1], cond[:, 1])
    unbounded = _unbounded_rows(*pair)
    fields = decompose(P, Q, *pair, unbounded)
    tv_joint, _, _, kl_x, exp_kl_cond, lower, upper, pinsker = fields
    holds, bound = dominance_probe(pair, kl_x, exp_kl_cond, unbounded)

    logs = _log_tables(P)
    tv_vec, tv_soft, tv_scalar = np.zeros(count), np.zeros(count), np.full(count, np.nan)
    checked = np.flatnonzero(holds)
    if checked.size:
        scalar = _chain_stack(logs[checked].reshape(len(checked), -1))
        [law] = pushforward(tables[checked], [scalar])
        tv_scalar[checked] = _law_tv(law, scalar[1])
    _, chains = _chain_stack(np.concatenate([logs[..., 0], cond[:, 0, :, 0]]))
    merges = np.flatnonzero((chains < x_size).reshape(2, count).any(axis=0))
    if merges.size:
        channels = (log_joint_vector_channel(logs[merges]), softmax_channel(cond[merges, 0]))
        laws = pushforward(tables[merges], channels)
        tv_vec[merges], tv_soft[merges] = (
            _law_tv(law, sizes) for law, (_, sizes) in zip(laws, channels))

    tol = _CHECK_TOL
    finite = np.isfinite(pinsker)
    always = np.ones(count, dtype=bool)
    triggered = np.array([always, finite, finite, always, holds])
    with np.errstate(invalid="ignore"):  # inf - inf where a check does not apply
        slack = np.array([np.minimum(tv_joint - lower, upper - tv_joint), pinsker - tv_joint,
                          pinsker - upper, tv_vec - tv_soft, tv_scalar - bound])
    passed = np.array([(lower <= tv_joint + tol) & (tv_joint <= upper + tol),
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
    channel TV >= its ``bound``.  A check fails when it misses by more than
    1e-12; its slack is the margin by which it holds (negative when it
    misses).  The expected violation count is 0.  The counts and the seed
    must be integers, and an axis numpy cannot index raises ``DataError``
    even at 0 trials.
    """
    trials = integer("trials", trials, 0)
    x_size, y_size = integer("x_size", x_size), integer("y_size", y_size)
    rng = stream("certification", seed)  # checks the seed
    if x_size < 2 or y_size < 2:
        raise ValidationError("need at least 2 atoms on each axis")
    if trials == 0:  # no draw would meet numpy's size check, so make an empty one
        sample_dirichlet_joint(rng, x_size, y_size, 0)
    return _certify_chunks(_dirichlet_chunks(rng, trials, x_size, y_size))


def certify_bounds(
    trials: int, x_size: int, y_size: int, seed: int = 0
) -> tuple[list[BoundsReport], int]:
    """:func:`certify`'s reports and the number of pairs that violate any check."""
    result = certify(trials, x_size, y_size, seed=seed)
    return result.reports, result.violations
