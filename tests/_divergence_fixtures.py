"""Joint-table pairs and a channel that only the divergence tests use.

The pairs are built so a known inequality is tight or a known condition
holds; the channel exposes the scalar conditional ``p(y|x)``, the
comparison point for the scalar log-joint channel.
"""

import numpy as np

from mialab.divergence import DiscreteJoint, ScoreChannel, _chain_channel


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
    return (
        DiscreteJoint.from_array(p / p.sum()),
        DiscreteJoint.from_array(q / q.sum()),
    )


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
    return (
        DiscreteJoint.from_array(p / p.sum()),
        DiscreteJoint.from_array(q / q.sum()),
    )


def scalar_conditional_channel(joint: DiscreteJoint) -> ScoreChannel:
    """Channel exposing the scalar conditional probability ``p(y|x)`` of the
    sampled pair; atoms with matching values coincide.  Undefined rows
    (zero marginal) share one outcome."""
    return _chain_channel(joint.conditionals()[1])
