"""Per-x loop forms of the divergence oracle, used only as a test oracle.

The same definitions as mialab.divergence, coded one row and one atom at a
time: each conditional is divided out where it is used, the expectations
are accumulated left to right, row channels compare every row against the
representatives found so far, and scalar channels scan the sorted values.
Kept free of any code sharing with mialab.divergence on purpose; every
function takes plain 2-D probability tables, and ``certify`` runs the
certification checks one pair at a time.
"""

import math

import numpy as np

GROUP_ATOL = 1e-9


def _kl(p, q):
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    return max(0.0, float(np.sum(p[support] * np.log(p[support] / q[support]))))


def decompose(P, Q):
    """Fields of ``BoundsReport`` in declaration order."""
    px, qx = P.sum(axis=1), Q.sum(axis=1)
    tv_joint = 0.5 * float(np.abs(P - Q).sum())
    tv_marginal = 0.5 * float(np.abs(px - qx).sum())
    kl_x = _kl(px, qx)

    exp_cond_tv = 0.0
    exp_kl_cond = 0.0
    uniform = np.full(P.shape[1], 1.0 / P.shape[1])
    for x in range(P.shape[0]):
        if px[x] <= 0.0:
            continue
        p_cond = P[x] / px[x]
        if qx[x] <= 0.0:
            exp_cond_tv += px[x] * 0.5 * float(np.abs(p_cond - uniform).sum())
            exp_kl_cond = math.inf
            continue
        q_cond = Q[x] / qx[x]
        exp_cond_tv += px[x] * 0.5 * float(np.abs(p_cond - q_cond).sum())
        if exp_kl_cond != math.inf:
            support = p_cond > 0.0
            if np.any(q_cond[support] == 0.0):
                exp_kl_cond = math.inf
            else:
                term = float(np.sum(p_cond[support] * np.log(p_cond[support] / q_cond[support])))
                exp_kl_cond += px[x] * max(0.0, term)

    if math.isfinite(kl_x) and math.isfinite(exp_kl_cond):
        pinsker_upper = math.sqrt(kl_x / 2.0) + math.sqrt(exp_kl_cond / 2.0)
    else:
        pinsker_upper = math.inf
    return (tv_joint, tv_marginal, exp_cond_tv, kl_x, exp_kl_cond,
            abs(tv_marginal - exp_cond_tv), tv_marginal + exp_cond_tv, pinsker_upper)


class Unbounded(Exception):
    """The conditional likelihood ratio has no finite range."""


def lr_constants(P, Q):
    """(min, max) of ``P(y|x)/Q(y|x)``; raises ``Unbounded`` where it has none."""
    px, qx = P.sum(axis=1), Q.sum(axis=1)
    lo, hi = math.inf, -math.inf
    for x in range(P.shape[0]):
        if px[x] <= 0.0:
            continue
        if qx[x] <= 0.0:
            raise Unbounded(f"Q has no mass at supported x={x}")
        p_cond = P[x] / px[x]
        q_cond = Q[x] / qx[x]
        for y in range(P.shape[1]):
            if q_cond[y] == 0.0:
                if p_cond[y] > 0.0:
                    raise Unbounded(f"conditional ratio unbounded at (x={x}, y={y})")
                continue
            r = p_cond[y] / q_cond[y]
            lo, hi = min(lo, r), max(hi, r)
    return lo, hi


def _group_rows(rows):
    reps = np.empty((0, rows.shape[1]))
    labels = np.empty(rows.shape[0], dtype=np.int64)
    for i, row in enumerate(rows):
        # np.allclose of the row against each representative found so far
        near = np.flatnonzero(np.isclose(reps, row, rtol=0.0, atol=GROUP_ATOL).all(axis=1))
        if near.size:
            labels[i] = near[0]
        else:
            labels[i] = len(reps)
            reps = np.vstack([reps, row])
    return np.repeat(labels[:, None], rows.shape[1], axis=1), len(reps)


def _conditional_rows(P):
    rows = np.empty_like(P)
    for x in range(P.shape[0]):
        px = P[x].sum()
        rows[x] = P[x] / px if px > 0.0 else np.full(P.shape[1], -1.0)
    return rows


def log_joint_vector_channel(P):
    """(outcomes, outcome_size): x atoms share an outcome when their log rows coincide."""
    with np.errstate(divide="ignore"):
        return _group_rows(np.log(P))


def softmax_channel(P):
    """(outcomes, outcome_size): x atoms share an outcome when their conditionals coincide."""
    return _group_rows(_conditional_rows(P))


def _scan_sorted(values, first_id):
    """Labels for ``values`` from a scan of their sorted order, starting at ``first_id``."""
    labels = np.empty(values.size, dtype=np.int64)
    next_id = first_id
    prev = None
    for pos in np.argsort(values, kind="mergesort"):
        if prev is None or values[pos] - prev > GROUP_ATOL:
            next_id += 1
        labels[pos] = next_id - 1
        prev = values[pos]
    return labels, next_id


def scalar_log_joint_channel(P):
    """(outcomes, outcome_size): zero atoms form outcome 0, positive atoms group by log value."""
    flat = P.ravel()
    outcomes = np.empty(flat.size, dtype=np.int64)
    zero = flat == 0.0
    first_id = 1 if zero.any() else 0
    outcomes[zero] = 0
    outcomes[~zero], size = _scan_sorted(np.log(flat[~zero]), first_id)
    return outcomes.reshape(P.shape), size


def scalar_conditional_channel(P):
    """(outcomes, outcome_size): atoms group by their conditional ``p(y|x)``."""
    outcomes, size = _scan_sorted(_conditional_rows(P).ravel(), 0)
    return outcomes.reshape(P.shape), size


def _pushforward(P, outcomes, size):
    law = np.zeros(size)
    for o, w in zip(outcomes.ravel(), P.ravel()):
        law[o] += w
    return law / law.sum()


def _tv(p, q):
    return 0.5 * float(np.abs(p - q).sum())


def _channel_tv(P, Q, channel):
    outcomes, size = channel
    return _tv(_pushforward(P, outcomes, size), _pushforward(Q, outcomes, size))


def _c_coeff(alpha, beta):
    if not 0.0 < alpha <= beta:
        raise ValueError(f"need 0 < alpha <= beta, got ({alpha!r}, {beta!r})")
    gap = math.log(beta) - math.log(alpha)
    return gap / (1.0 + gap)


def dirichlet_pairs(trials, x_size, y_size, seed):
    """The (P, Q) tables ``certify_bounds`` draws: flat Dirichlet, p then q per trial."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    for _ in range(trials):
        P, Q = (rng.dirichlet(np.ones(x_size * y_size)).reshape(x_size, y_size)
                for _ in range(2))
        yield P, Q


def certify(pairs, tol=1e-12):
    """Reports (tuples), the number of pairs failing any check, and per check
    ``(triggered, violations, min slack)``.

    The checks, in order: sandwich, TV <= Pinsker, upper <= Pinsker, softmax
    TV <= log-joint vector TV, and the scalar log-joint dominance bound where
    its condition holds.  Raises ``Unbounded`` or ``ValueError`` where the
    first such pair has no finite ratio range or a zero ratio.
    """
    reports = []
    violations = 0
    counts = [[0, 0, math.inf] for _ in range(5)]
    for P, Q in pairs:
        rep = decompose(P, Q)
        reports.append(rep)
        tv_joint, _, _, kl_x, exp_kl_cond, lower, upper, pinsker = rep
        alpha, beta = map(float, lr_constants(P, Q))
        gap = _c_coeff(alpha, beta) * kl_x - exp_kl_cond
        bound = math.sqrt(max(0.0, gap) / 2.0) if math.isfinite(gap) else math.inf
        tv_vec = _channel_tv(P, Q, log_joint_vector_channel(P))
        tv_soft = _channel_tv(P, Q, softmax_channel(P))
        tv_scalar = _channel_tv(P, Q, scalar_log_joint_channel(P))
        finite = math.isfinite(pinsker)
        checks = (
            (True, min(tv_joint - lower, upper - tv_joint),
             lower <= tv_joint + tol and tv_joint <= upper + tol),
            (finite, pinsker - tv_joint, tv_joint <= pinsker + tol),
            (finite, pinsker - upper, upper <= pinsker + tol),
            (True, tv_vec - tv_soft, tv_soft <= tv_vec + tol),
            (gap > 0.0, tv_scalar - bound, tv_scalar >= bound - tol),
        )
        for count, (applies, slack, holds) in zip(counts, checks):
            if applies:
                count[0] += 1
                count[1] += not holds
                count[2] = min(count[2], slack)
        violations += any(applies and not holds for applies, _, holds in checks)
    return reports, violations, [tuple(c) for c in counts]
