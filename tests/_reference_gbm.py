"""Boosting oracles and probes used only by the tests.

Two references live here, kept free of imports from mialab.gbm:

* a brute-force booster with the package's split rule and leaf formula,
  coded the slow way: every (feature, midpoint) candidate is scored by
  explicitly slicing and summing, and trees are grown with plain recursion
  over index lists;
* the per-feature engine (one stable sort of each feature at every node,
  features scanned in order), whose trees the presorted package engine must
  reproduce bit for bit: same features, same thresholds, same leaf values.

Two probes of the package engine close the module: ``_best_split`` builds
the root record of a one-feature fit and scores it with the production
split kernel, ``_node_split``, so the exhaustive enumeration above can
check it, and ``staged_train_deviance`` replays a fitted model's stages.
"""

import math

import numpy as np
from scipy.special import expit

from mialab.gbm import GbmModel, _eval_tree, _Grower, _node_split


def enumerate_best_split(x, residuals):
    """Minimum-SSE split of one feature by exhaustive candidate scoring.

    Returns (threshold, sse_children) or None.  Ties go to the smallest
    threshold.
    """
    values = sorted(set(float(v) for v in x))
    best = None
    for a, b in zip(values, values[1:]):
        thr = 0.5 * (a + b)
        if not (a < thr < b):
            continue
        left = residuals[x <= thr]
        right = residuals[x > thr]
        sse = (
            float(np.sum((left - left.mean()) ** 2))
            + float(np.sum((right - right.mean()) ** 2))
        )
        if best is None or sse < best[1] - 1e-15:
            best = (thr, sse)
    return best


def enumerate_best_split_all_features(X, residuals):
    """(feature, threshold, sse_children) minimizing SSE over all candidates."""
    best = None
    for f in range(X.shape[1]):
        found = enumerate_best_split(X[:, f], residuals)
        if found is None:
            continue
        thr, sse = found
        if best is None or sse < best[2] - 1e-15:
            best = (f, thr, sse)
    return best


class _Leaf:
    def __init__(self, value):
        self.value = value

    def predict(self, row):
        return self.value


class _Split:
    def __init__(self, feature, threshold, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    def predict(self, row):
        child = self.left if row[self.feature] <= self.threshold else self.right
        return child.predict(row)


def _grow(X, residuals, hessians, idx, depth, max_depth):
    node_res = residuals[idx]
    if depth < max_depth and idx.size >= 2:
        parent_sse = float(np.sum((node_res - node_res.mean()) ** 2))
        found = enumerate_best_split_all_features(X[idx], node_res)
        if found is not None and found[2] < parent_sse - 0.0:
            f, thr, _ = found
            go_left = X[idx, f] <= thr
            return _Split(
                f,
                thr,
                _grow(X, residuals, hessians, idx[go_left], depth + 1, max_depth),
                _grow(X, residuals, hessians, idx[~go_left], depth + 1, max_depth),
            )
    value = float(node_res.sum() / max(hessians[idx].sum(), 1e-12))
    return _Leaf(value)


def reference_boost(X, y, n_estimators, max_depth, learning_rate):
    """Stage-wise booster; returns (base_score, trees, staged mean deviance)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rate = y.mean()
    base = math.log(rate / (1.0 - rate))
    raw = np.full(X.shape[0], base)

    def deviance(raw_scores):
        return float(np.mean(np.logaddexp(0.0, raw_scores) - y * raw_scores))

    staged = [deviance(raw)]
    trees = []
    idx = np.arange(X.shape[0])
    for _ in range(n_estimators):
        p = 1.0 / (1.0 + np.exp(-raw))
        residuals = y - p
        hessians = p * (1.0 - p)
        tree = _grow(X, residuals, hessians, idx, 0, max_depth)
        trees.append(tree)
        raw = raw + learning_rate * np.array([tree.predict(row) for row in X])
        staged.append(deviance(raw))
    return base, trees, np.asarray(staged)


def per_feature_best_split(x, residuals):
    """Best (threshold, children score) of one feature by its own stable sort, or None."""
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


def _per_feature_tree(X, residuals, hessians, idx, depth, max_depth, train_out):
    """Nested ``("split", feature, threshold, left, right)`` / ``("leaf", value)`` tuples."""
    node_res = residuals[idx]
    if depth < max_depth and idx.size >= 2:
        parent_score = node_res.sum() ** 2 / idx.size
        best_feature, best_threshold, best_score = -1, 0.0, parent_score
        for f in range(X.shape[1]):
            found = per_feature_best_split(X[idx, f], node_res)
            if found is None:
                continue
            threshold, score = found
            if score > best_score:  # strict: an equal later feature loses
                best_feature, best_threshold, best_score = f, threshold, score
        if best_feature >= 0:
            go_left = X[idx, best_feature] <= best_threshold
            return (
                "split", best_feature, best_threshold,
                _per_feature_tree(X, residuals, hessians, idx[go_left], depth + 1, max_depth,
                                  train_out),
                _per_feature_tree(X, residuals, hessians, idx[~go_left], depth + 1, max_depth,
                                  train_out),
            )

    value = float(node_res.sum() / max(hessians[idx].sum(), 1e-12))
    train_out[idx] = value
    return ("leaf", value)


def per_feature_boost(X, y, n_estimators, max_depth, learning_rate):
    """(base_score, trees) of the per-feature engine, trees as nested tuples."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rate = y.mean()
    base = float(np.log(rate / (1.0 - rate)))
    raw = np.full(X.shape[0], base)
    idx = np.arange(X.shape[0])
    trees = []
    for _ in range(n_estimators):
        p = expit(raw)
        residuals = y - p
        hessians = p * (1.0 - p)
        contrib = np.zeros(X.shape[0])
        trees.append(_per_feature_tree(X, residuals, hessians, idx, 0, max_depth, contrib))
        raw += learning_rate * contrib
    return base, trees


def per_row_predict(base, trees, learning_rate, X):
    """Attack-model probabilities, one row at a time."""
    out = np.empty(X.shape[0])
    for i, row in enumerate(np.asarray(X, dtype=np.float64)):
        raw = np.float64(base)
        for node in trees:
            while node[0] == "split":
                node = node[3] if row[node[1]] <= node[2] else node[4]
            raw += learning_rate * node[1]
        out[i] = expit(raw)
    return out


def _best_split(x, residuals):
    """Best (threshold, children-score) of one feature by the package's split kernel, or None."""
    if x.shape[0] < 2:
        return None
    grower = _Grower(x[:, None], max_depth=1)
    if grower.root.order is None:  # a constant feature
        return None
    _, threshold, score = _node_split(grower.X, grower.root, residuals)
    if score == -np.inf:
        return None
    return threshold, float(score)


def staged_train_deviance(model: GbmModel, features, labels):
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
