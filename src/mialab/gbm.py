"""Gradient-boosted regression trees for binary deviance, from scratch.

Stage-wise boosting on the binomial deviance: each stage fits an
axis-aligned regression tree to the residuals ``y - p`` by exhaustive
best-split search (squared error over all features and midpoints of sorted
unique values), then assigns leaf values with the Newton step
``sum(residual) / max(sum(p * (1 - p)), 1e-12)``.  Predictions are
``sigmoid(base_score + learning_rate * sum of tree outputs)`` with
``base_score`` the log-odds of the empirical positive rate.

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


def _best_split(x: np.ndarray, residuals: np.ndarray) -> tuple[float, float] | None:
    """Best (threshold, children-score) for one feature, or None.

    The children score is ``S_L^2/n_L + S_R^2/n_R``; maximizing it minimizes
    the summed squared error of the two children.  Candidate thresholds are
    midpoints of consecutive distinct sorted values; a midpoint that rounds
    onto one of its neighbors cannot realize the intended partition and is
    skipped.
    """
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    cut = np.nonzero(np.diff(xs) > 0)[0]
    if cut.size == 0:
        return None
    thresholds = 0.5 * (xs[cut] + xs[cut + 1])
    valid = (thresholds > xs[cut]) & (thresholds < xs[cut + 1])
    if not valid.any():
        return None
    cut, thresholds = cut[valid], thresholds[valid]

    prefix = np.cumsum(residuals[order])
    total = prefix[-1]
    n = x.shape[0]
    n_left = (cut + 1).astype(np.float64)
    s_left = prefix[cut]
    score = s_left**2 / n_left + (total - s_left) ** 2 / (n - n_left)
    best = int(np.argmax(score))  # first max -> smallest threshold
    return float(thresholds[best]), float(score[best])


def _build_tree(
    X: np.ndarray,
    residuals: np.ndarray,
    hessians: np.ndarray,
    idx: np.ndarray,
    depth: int,
    max_depth: int,
    train_out: np.ndarray,
) -> TreeNode:
    node_res = residuals[idx]
    if depth < max_depth and idx.size >= 2:
        parent_score = node_res.sum() ** 2 / idx.size
        best_feature, best_threshold, best_score = -1, 0.0, parent_score
        for f in range(X.shape[1]):
            found = _best_split(X[idx, f], node_res)
            if found is None:
                continue
            threshold, score = found
            if score > best_score:
                best_feature, best_threshold, best_score = f, threshold, score
        if best_feature >= 0:
            go_left = X[idx, best_feature] <= best_threshold
            node = TreeNode(feature=best_feature, threshold=best_threshold)
            node.left = _build_tree(
                X, residuals, hessians, idx[go_left], depth + 1, max_depth, train_out
            )
            node.right = _build_tree(
                X, residuals, hessians, idx[~go_left], depth + 1, max_depth, train_out
            )
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
    trees: list[TreeNode] = []
    for _ in range(n_estimators):
        p = expit(raw)
        residuals = y - p
        hessians = p * (1.0 - p)
        contrib = np.zeros(X.shape[0])
        root = _build_tree(X, residuals, hessians, idx, 0, max_depth, contrib)
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


def staged_train_deviance(
    model: GbmModel, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Mean binomial deviance after 0, 1, ..., n_estimators stages.

    Computed from raw scores as ``log(1 + e^z) - y*z``, which needs no
    probability clamping.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    raw = np.full(X.shape[0], model.base_score)
    out = [float(np.mean(np.logaddexp(0.0, raw) - y * raw))]
    for tree in model.trees:
        raw += model.learning_rate * _eval_tree(tree, X)
        out.append(float(np.mean(np.logaddexp(0.0, raw) - y * raw)))
    return np.asarray(out)


def tree_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def _write_node(node: TreeNode, lines: list[str]) -> None:
    if node.is_leaf:
        lines.append(f"leaf {node.value!r}")
    else:
        lines.append(f"split {node.feature} {node.threshold!r}")
        _write_node(node.left, lines)
        _write_node(node.right, lines)


def serialize_gbm(model: GbmModel) -> str:
    """Preorder text form; float fields use ``repr`` so round-trips are exact."""
    lines = [
        "gbm v1",
        f"n_estimators={model.n_estimators} max_depth={model.max_depth} "
        f"learning_rate={model.learning_rate!r} base_score={model.base_score!r} "
        f"n_features={model.n_features}",
    ]
    for k, tree in enumerate(model.trees):
        lines.append(f"tree {k}")
        _write_node(tree, lines)
    return "\n".join(lines) + "\n"


def _parse_node(lines: list[str], pos: int) -> tuple[TreeNode, int]:
    parts = lines[pos].split()
    if parts[0] == "leaf":
        return TreeNode(value=float(parts[1])), pos + 1
    if parts[0] == "split":
        node = TreeNode(feature=int(parts[1]), threshold=float(parts[2]))
        node.left, pos = _parse_node(lines, pos + 1)
        node.right, pos = _parse_node(lines, pos)
        return node, pos
    raise ValidationError(f"unrecognized tree line: {lines[pos]!r}")


def deserialize_gbm(text: str) -> GbmModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "gbm v1":
        raise ValidationError("not a gbm v1 file")
    try:
        header = dict(kv.split("=") for kv in lines[1].split())
        model = GbmModel(
            trees=[],
            learning_rate=float(header["learning_rate"]),
            base_score=float(header["base_score"]),
            n_estimators=int(header["n_estimators"]),
            max_depth=int(header["max_depth"]),
            n_features=int(header["n_features"]),
        )
        pos = 2
        while pos < len(lines):
            if not lines[pos].startswith("tree "):
                raise ValidationError(f"expected tree header at line {pos + 1}")
            root, pos = _parse_node(lines, pos + 1)
            model.trees.append(root)
    except (KeyError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed gbm file: {exc}") from exc
    return model
