"""Gradient-boosted regression trees for binary deviance, from scratch.

Stage-wise boosting on the binomial deviance: each stage fits an
axis-aligned regression tree to the residuals ``y - p`` by exhaustive
best-split search (squared error over all features and midpoints of sorted
unique values), then assigns leaf values with the Newton step
``sum(residual) / max(sum(p * (1 - p)), 1e-12)``.  Predictions are
``sigmoid(base_score + learning_rate * sum of tree outputs)`` with
``base_score`` the log-odds of the empirical positive rate.

The split search is the exact-greedy presort of XGBoost (Chen & Guestrin,
KDD 2016).  Each fit sorts every feature once, stably; a node takes its rows
from those orders by mask, so no node sorts, and scores every candidate of
every feature in one pass of row-wise prefix sums.  Each feature sums its
residuals in its own sorted order, exactly as a per-feature search would,
so the trees are the same bit for bit.

There is no subsampling and no randomness: fitting is fully deterministic.
Ties between equal-gain splits go to the lowest feature index, then the
smallest threshold.  A node becomes a leaf when it reaches ``max_depth``,
has fewer than two samples, or no candidate split strictly reduces the
squared error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DataError, DegenerateDataError, ValidationError

HESSIAN_FLOOR = 1e-12


@dataclass
class TreeNode:
    """Internal split (``feature >= 0``) or leaf (``feature == -1``)."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class GbmModel:
    trees: list[TreeNode]
    learning_rate: float
    base_score: float
    n_estimators: int
    max_depth: int
    n_features: int


def _node_splits(values: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best (threshold, children score) of every feature row of one node.

    ``values`` holds each feature's node values in ascending order (one row
    per feature) and ``residuals`` the node's residuals in the same order.
    The children score is ``S_L^2/n_L + S_R^2/n_R``; maximizing it minimizes
    the summed squared error of the two children.  Candidate thresholds are
    midpoints of consecutive distinct sorted values; a midpoint that rounds
    onto one of its neighbors cannot realize the intended partition and is
    skipped.  A feature without a candidate scores ``-inf``.
    """
    lo, hi = values[:, :-1], values[:, 1:]
    thresholds = 0.5 * (lo + hi)
    valid = (thresholds > lo) & (thresholds < hi)
    # each row sums in its own order, so each feature's total is its own last prefix
    prefix = np.cumsum(residuals, axis=1)
    s_left, total = prefix[:, :-1], prefix[:, -1:]
    n = values.shape[1]
    n_left = np.arange(1, n, dtype=np.float64)
    score = np.where(valid, s_left**2 / n_left + (total - s_left) ** 2 / (n - n_left), -np.inf)
    best = np.argmax(score, axis=1)  # first max -> smallest threshold
    rows = np.arange(values.shape[0])
    return thresholds[rows, best], score[rows, best]


def _subset(
    keep: np.ndarray, idx: np.ndarray, order: np.ndarray, values: np.ndarray, grows: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The rows of a node that ``keep`` marks, as ``(idx, order, values)``;
    a child at ``max_depth`` is a leaf (``grows`` false) and needs no sorted rows."""
    if not grows:
        return idx[keep[idx]], None, None
    rows = keep[order]
    shape = (order.shape[0], -1)
    return idx[keep[idx]], order[rows].reshape(shape), values[rows].reshape(shape)


def _build_tree(
    X: np.ndarray,
    residuals: np.ndarray,
    hessians: np.ndarray,
    idx: np.ndarray,
    order: np.ndarray | None,
    values: np.ndarray | None,
    depth: int,
    max_depth: int,
    train_out: np.ndarray,
) -> TreeNode:
    """Grow the subtree on rows ``idx`` (ascending); row ``f`` of ``order``
    lists those rows by ascending feature ``f`` and ``values`` holds the
    feature values in that order (both None at ``max_depth``)."""
    node_res = residuals[idx]
    if depth < max_depth and idx.size >= 2:
        thresholds, scores = _node_splits(values, residuals[order])
        f = int(np.argmax(scores))  # first max -> lowest feature
        if scores[f] > node_res.sum() ** 2 / idx.size:
            threshold = float(thresholds[f])
            goes_left = X[:, f] <= threshold
            node = TreeNode(feature=f, threshold=threshold)
            grows = depth + 1 < max_depth
            node.left = _build_tree(X, residuals, hessians,
                                    *_subset(goes_left, idx, order, values, grows),
                                    depth + 1, max_depth, train_out)
            node.right = _build_tree(X, residuals, hessians,
                                     *_subset(~goes_left, idx, order, values, grows),
                                     depth + 1, max_depth, train_out)
            return node

    value = float(node_res.sum() / max(hessians[idx].sum(), HESSIAN_FLOOR))
    train_out[idx] = value
    return TreeNode(value=value)


def fit_gbm(
    features: np.ndarray,
    labels: np.ndarray,
    n_estimators: int = 100,
    max_depth: int = 3,
    learning_rate: float = 0.1,
) -> GbmModel:
    """Fit the boosted classifier on 0/1 labels; the procedure draws no random numbers."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValidationError(f"features must be a 2-D matrix, got shape {X.shape}")
    if X.shape[0] < 2 or y.shape != (X.shape[0],):
        raise ValidationError("need n >= 2 rows with one label per row")
    if not np.isfinite(X).all():
        raise DataError("features contain non-finite values")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValidationError("labels must be 0 or 1")
    if y.min() == y.max():
        raise DegenerateDataError("both label values must be present")
    if n_estimators < 0 or max_depth < 0:
        raise ValidationError("n_estimators and max_depth must be nonnegative")

    rate = y.mean()
    base = float(np.log(rate / (1.0 - rate)))
    raw = np.full(X.shape[0], base)
    idx = np.arange(X.shape[0])
    # a stable sort restricted to the ascending rows of a node is that node's
    # own stable sort, so one presort serves every node of every stage
    order = np.argsort(X.T, axis=1, kind="mergesort")
    values = np.take_along_axis(X.T, order, axis=1)
    trees: list[TreeNode] = []
    for _ in range(n_estimators):
        p = expit(raw)
        residuals = y - p
        hessians = p * (1.0 - p)
        contrib = np.zeros(X.shape[0])
        root = _build_tree(X, residuals, hessians, idx, order, values, 0, max_depth, contrib)
        trees.append(root)
        raw += learning_rate * contrib
    return GbmModel(
        trees=trees,
        learning_rate=learning_rate,
        base_score=base,
        n_estimators=n_estimators,
        max_depth=max_depth,
        n_features=X.shape[1],
    )


def _eval_tree(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        go_left = X[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[go_left]))
        stack.append((nd.right, idx[~go_left]))
    return out


def gbm_raw_scores(model: GbmModel, X: np.ndarray) -> np.ndarray:
    """Pre-sigmoid scores for a matrix of rows."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise ValidationError(
            f"expected {model.n_features} features, got {X.shape[1]}"
        )
    raw = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        raw += model.learning_rate * _eval_tree(tree, X)
    return raw


def gbm_predict_matrix(model: GbmModel, X: np.ndarray) -> np.ndarray:
    return expit(gbm_raw_scores(model, X))

