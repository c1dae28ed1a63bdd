"""Rank-sum form of the AUROC, used only as a test oracle.

The Mann-Whitney statistic from the member side's rank sum over the pooled
scores, ties given their group's average rank.  It shares no code with
``mialab.metrics.auroc``, which counts each member's wins and ties instead.
"""

import numpy as np


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the group average (a half-integer)."""
    order = np.argsort(values, kind="mergesort")
    sorted_v = values[order]
    n = values.size
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_v[1:] != sorted_v[:-1]
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    last = np.cumsum(counts)
    avg = (last - counts + 1 + last) / 2.0
    ranks = np.empty(n)
    ranks[order] = avg[group_id]
    return ranks


def rank_sum_auroc(members, nonmembers) -> float:
    """AUROC of already-oriented member and nonmember scores (higher is member)."""
    members = np.asarray(members, dtype=np.float64)
    nonmembers = np.asarray(nonmembers, dtype=np.float64)
    ranks = average_ranks(np.concatenate([members, nonmembers]))
    n_m, n_n = members.size, nonmembers.size
    rank_sum = float(ranks[:n_m].sum())
    return (rank_sum - n_m * (n_m + 1) / 2.0) / (n_m * n_n)
