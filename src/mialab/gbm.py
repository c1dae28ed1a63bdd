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
from its parent's orders by mask, so no node sorts, and scores every
candidate of every feature in one pass of row-wise prefix sums.  Each
feature sums its residuals in its own sorted order, exactly as a
per-feature search would, so the trees are the same bit for bit.  A
constant column has no candidate at any node, so it is left out of the
presort; the logits of a logistic target, ``(0, w.x + b)``, always have one.

A node's rows depend only on the (feature, threshold) splits on its path
from the root, not on the residuals, and later stages often repeat a path.
So a fit keeps one record per node it builds: its rows, their order under
each feature and which candidate midpoints are valid, filed under its
parent by the split that made it.  A stage walks its tree through these
records and, per node, only gathers and sums residuals.  The records below
the root are kept while their arrays fit in ``_CACHE_BYTES`` (256 KiB) per
fit; past the cap a new split builds its children for that visit only.  The
cap changes only speed, never a tree.

There is no subsampling and no randomness: fitting is fully deterministic.
Ties between equal-gain splits go to the lowest feature index, then the
smallest threshold.  A node becomes a leaf when it reaches ``max_depth``,
has fewer than two samples, or no candidate split strictly reduces the
squared error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError, ValidationError, integer, real

HESSIAN_FLOOR = 1e-12
# Bytes of node records one fit may keep across its stages, beyond the root.
_CACHE_BYTES = 1 << 18


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


class _Node:
    """One node's rows, fixed by the (feature, threshold) splits on its path.

    ``idx`` lists the rows in ascending order.  A node that can split also
    holds ``order`` (row ``f`` lists its rows by ascending feature ``f``), the
    ``valid`` mask of its candidate positions and the child sizes
    ``n_left``/``n_right`` of each position; a node at ``max_depth`` or with
    fewer than two rows holds only ``idx``.  ``children`` maps a split
    ``(f, threshold)`` to the two child records, or is None for a node that is
    not kept.  None of it depends on the residuals, so a kept record serves
    every stage.
    """

    __slots__ = ("idx", "order", "valid", "n_left", "n_right", "children")

    def __init__(self, idx: np.ndarray) -> None:
        self.idx, self.order, self.children = idx, None, None

    @property
    def nbytes(self) -> int:
        # n_left and n_right are views of the fit's counts and own no bytes
        if self.order is None:
            return self.idx.nbytes
        return self.idx.nbytes + self.order.nbytes + self.valid.nbytes


def _node_split(X: np.ndarray, node: _Node,
                residuals: np.ndarray) -> tuple[int, float, np.float64]:
    """Best ``(feature, threshold, children score)`` of a node that can split.

    The children score is ``S_L^2/n_L + S_R^2/n_R``; maximizing it minimizes
    the summed squared error of the two children.  Each feature sums its
    residuals in its own sorted order, so its total is its own last prefix.
    An invalid candidate scores ``-inf``.  The first maximum in row-major
    order goes to the lowest feature, then the smallest threshold.
    """
    prefix = residuals[node.order].cumsum(axis=1)
    s_left, total = prefix[:, :-1], prefix[:, -1:]
    score = np.where(node.valid,
                     s_left**2 / node.n_left + (total - s_left) ** 2 / node.n_right, -np.inf)
    f, pos = divmod(int(score.argmax()), score.shape[1])
    row = node.order[f]  # the midpoint the valid mask tested, to the bit
    return f, float(0.5 * (X[row[pos], f] + X[row[pos + 1], f])), score[f, pos]


class _Grower:
    """The node records of one fit, kept across its stages within a byte cap.

    A stage walks its tree through the kept records.  A split not seen at a
    node before builds the two children from the node's rows by mask, so no
    node sorts; they are kept while their arrays fit in what is left of
    ``_CACHE_BYTES``, and otherwise serve this visit only.  The cap changes
    only how much work repeats, never a tree.
    """

    def __init__(self, X: np.ndarray, max_depth: int) -> None:
        # a constant column has no valid candidate, so it is left out of the
        # presort; ``features`` maps each kept column back to its index in X
        self.features = np.flatnonzero((X != X[0]).any(axis=0))
        X = X[:, self.features]
        n, m = X.shape
        self.X, self.max_depth = X, max_depth
        # feature f of row i sits at f * n + i of the flat transposed copy
        self.XT = np.ascontiguousarray(X.T).ravel()
        self.offsets = np.arange(0, m * n, n)[:, None]
        # the child sizes 1..n-1 and n-1..1; a node of k rows views the first
        # k - 1 of the one and the last k - 1 of the other
        self.n_left = np.arange(1, n, dtype=np.float64)
        self.n_right = self.n_left[::-1].copy()
        # a stable sort restricted to the ascending rows of a node is that node's
        # own stable sort, so one presort serves every node of every stage
        order = np.argsort(X.T, axis=1, kind="mergesort") if max_depth > 0 and m else None
        self.root = self._node(np.arange(n), order)
        self.root.children = {}
        self.free = _CACHE_BYTES

    def _node(self, idx: np.ndarray, order: np.ndarray | None) -> _Node:
        node = _Node(idx)
        if order is None or idx.size < 2:
            return node
        node.order = order
        values = self.XT.take(order + self.offsets)
        lo, hi = values[:, :-1], values[:, 1:]
        mid = 0.5 * (lo + hi)
        # a midpoint that rounds onto a neighbor cannot realize its partition
        node.valid = (mid > lo) & (mid < hi)
        node.n_left = self.n_left[:idx.size - 1]
        node.n_right = self.n_right[-(idx.size - 1):]
        return node

    def _children(self, node: _Node, f: int, threshold: float, depth: int) -> tuple:
        kids = node.children.get((f, threshold)) if node.children is not None else None
        if kids is not None:
            return kids
        keep = self.X[:, f] <= threshold
        at_idx = keep[node.idx]
        left, right = node.idx[at_idx], node.idx[~at_idx]
        if depth < self.max_depth:
            at_order = keep[node.order]
            shape = (node.order.shape[0], -1)
            kids = (self._node(left, node.order[at_order].reshape(shape)),
                    self._node(right, node.order[~at_order].reshape(shape)))
        else:
            kids = (_Node(left), _Node(right))
        size = kids[0].nbytes + kids[1].nbytes
        if node.children is not None and size <= self.free:
            self.free -= size
            node.children[(f, threshold)] = kids
            for kid in kids:
                kid.children = {}
        return kids

    def grow(self, node: _Node, depth: int, residuals: np.ndarray, hessians: np.ndarray,
             train_out: np.ndarray) -> TreeNode:
        """The subtree on ``node``'s rows; writes each leaf value to ``train_out``."""
        # np.add.reduce is ndarray.sum, same bits, without its Python wrapper
        node_sum = np.add.reduce(residuals[node.idx])
        if node.order is not None:
            f, threshold, score = _node_split(self.X, node, residuals)
            if score > node_sum**2 / node.idx.size:
                left, right = self._children(node, f, threshold, depth + 1)
                return TreeNode(
                    feature=int(self.features[f]), threshold=threshold,
                    left=self.grow(left, depth + 1, residuals, hessians, train_out),
                    right=self.grow(right, depth + 1, residuals, hessians, train_out),
                )

        value = float(node_sum / max(np.add.reduce(hessians[node.idx]), HESSIAN_FLOOR))
        train_out[node.idx] = value
        return TreeNode(value=value)


def fit_gbm(
    features: np.ndarray,
    labels: np.ndarray,
    n_estimators: int = 100,
    max_depth: int = 3,
    learning_rate: float = 0.1,
) -> GbmModel:
    """Fit the boosted classifier on 0/1 labels; the procedure draws no random numbers."""
    import scipy.special
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
    integer("n_estimators", n_estimators, 0)
    integer("max_depth", max_depth, 0)
    real("learning_rate", learning_rate, lambda v: math.isfinite(v) and v >= 0,
         "be a finite number >= 0")

    rate = y.mean()
    base = float(np.log(rate / (1.0 - rate)))
    raw = np.full(X.shape[0], base)
    grower = _Grower(X, max_depth)
    trees: list[TreeNode] = []
    for _ in range(n_estimators):
        p = scipy.special.expit(raw)
        residuals = y - p
        hessians = p * (1.0 - p)
        contrib = np.zeros(X.shape[0])
        trees.append(grower.grow(grower.root, 0, residuals, hessians, contrib))
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
    import scipy.special
    return scipy.special.expit(gbm_raw_scores(model, X))

