"""Joint-table pairs, and per-pair calls of the certification stages, that
only the divergence tests use.

The pairs are built so a known inequality is tight or a known condition
holds.  Each stage of ``mialab.divergence`` takes a stack of tables; the
helpers below call it on a stack of one, wired as the certification kernel
wires it, so a test can look at one pair's numbers.  A channel here is
``(outcomes, size)``, with ``outcomes`` shaped like the table, as in
``_reference_divergence``.
"""

import numpy as np

from mialab import divergence
from mialab.divergence import BoundsReport, _chain_stack, _conditional_stack, _log_tables


def matched_normalizer_pair(rng, group_sizes=(3, 2, 1), y_size=4):
    """A pair built so the softmax quotient loses nothing.

    Within each group the target's rows are proportional (same posterior,
    different normalizer) and the shadow keeps a constant marginal ratio, so
    collapsing the normalizer changes neither induced TV.
    """
    x_size = sum(group_sizes)
    p = np.empty((x_size, y_size))
    px = rng.dirichlet(np.ones(x_size))
    q_ratio = np.empty(x_size)
    x = 0
    for size in group_sizes:
        base = rng.dirichlet(np.ones(y_size))
        ratio = rng.uniform(0.25, 4.0)
        for _ in range(size):
            p[x] = px[x] * base
            q_ratio[x] = ratio
            x += 1
    qx = px * q_ratio
    qx /= qx.sum()
    q = qx[:, None] * rng.dirichlet(np.ones(y_size), size=x_size)
    return p / p.sum(), q / q.sum()


def marginal_skew_pair(rng, x_size, y_size, delta=0.05):
    """A pair with nearly matched conditionals but independent marginals.

    Small ``delta`` keeps the conditional likelihood ratios inside
    ``[1/(1+delta), 1/(1-delta)]`` so the marginal term can dominate.
    """
    cond = rng.dirichlet(np.ones(y_size), size=x_size)
    px = rng.dirichlet(np.ones(x_size))
    qx = rng.dirichlet(np.ones(x_size))
    perturbed = cond * (1.0 + delta * rng.uniform(-1.0, 1.0, size=cond.shape))
    perturbed /= perturbed.sum(axis=1, keepdims=True)
    p = px[:, None] * cond
    q = qx[:, None] * perturbed
    return p / p.sum(), q / q.sum()


def _pair(P, Q):
    """The (1, 2, x, y) stack of one pair and its kernel ``pair`` argument."""
    tables = np.stack([np.asarray(P, dtype=np.float64), np.asarray(Q, dtype=np.float64)])[None]
    px, cond = _conditional_stack(tables)
    return tables, (px[:, 0], cond[:, 0], px[:, 1], cond[:, 1])


def _one(channel, shape):
    outcomes, sizes = channel
    return outcomes[0].reshape(shape), int(sizes[0])


def decompose(P, Q) -> BoundsReport:
    """The pair's :class:`BoundsReport`, from the ``decompose`` stage."""
    tables, pair = _pair(P, Q)
    fields = divergence.decompose(tables[:, 0], tables[:, 1], *pair,
                                  divergence._unbounded_rows(*pair))
    return BoundsReport(*fields[:, 0].tolist())


def log_joint_vector_channel(P):
    return _one(divergence.log_joint_vector_channel(_log_tables(P[None])), P.shape)


def softmax_channel(P):
    return _one(divergence.softmax_channel(_conditional_stack(P[None])[1]), P.shape)


def scalar_log_joint_channel(P):
    """Atoms whose log-joint values coincide share an outcome; zero atoms share one."""
    return _one(_chain_stack(_log_tables(P[None]).reshape(1, -1)), P.shape)


def scalar_conditional_channel(P):
    """Channel exposing the scalar conditional probability ``p(y|x)`` of the
    sampled pair; atoms with matching values coincide.  Undefined rows
    (zero marginal) share one outcome."""
    return _one(_chain_stack(_conditional_stack(P[None])[1].reshape(1, -1)), P.shape)


def _laws(P, Q, channel):
    """The (1, 2, size) ``pushforward`` laws of the pair through ``channel``, and its sizes."""
    outcomes, size = channel
    tables, _ = _pair(P, Q)
    sizes = np.array([size])
    return divergence.pushforward(tables, [(np.asarray(outcomes).reshape(1, -1), sizes)])[0], sizes


def laws(P, Q, channel):
    """The laws of ``P`` and of ``Q`` through ``channel``, from the ``pushforward`` stage."""
    law = _laws(P, Q, channel)[0][0]
    return law[0], law[1]


def channel_tv(P, Q, channel) -> float:
    """TV between the laws of ``P`` and ``Q`` through ``channel``, from the kernel's law TV."""
    return float(divergence._law_tv(*_laws(P, Q, channel))[0])


def lr_constants(P, Q):
    """(min, max) of the pair's conditional ratio; the pair's range must be finite."""
    pair = _pair(P, Q)[1]
    assert not divergence._unbounded_rows(*pair).any()
    alpha, beta = divergence._lr_range_stack(*pair)
    return float(alpha[0]), float(beta[0])


def dominance_probe(P, Q):
    """``(holds, bound)`` of the pair, from the ``dominance_probe`` stage, and
    ``tv_scalar``, the TV of its laws through the scalar log-joint channel."""
    tables, pair = _pair(P, Q)
    report = decompose(P, Q)
    holds, bound = divergence.dominance_probe(
        pair, np.array([report.kl_x]), np.array([report.exp_kl_cond]),
        divergence._unbounded_rows(*pair))
    return bool(holds[0]), float(bound[0]), channel_tv(P, Q, scalar_log_joint_channel(P))
