import tracemalloc

import numpy as np
import pytest

from mialab import attacks, gbm
from mialab.attacks import ScoreKind
from mialab.datagen import GenParams, generate_dataset
from mialab.errors import DataError, DegenerateDataError, ValidationError
from mialab.gbm import GbmModel, TreeNode, fit_gbm, gbm_predict_matrix
from mialab.linear_models import fit_logistic

from _gbm_text import deserialize_gbm, serialize_gbm, tree_depth
from _reference_gbm import (
    _best_split,
    enumerate_best_split,
    per_feature_boost,
    reference_boost,
    staged_train_deviance,
)


def _random_problem(rng, n, m):
    X = rng.normal(size=(n, m))
    logits = X[:, 0] * 1.5 - 0.5 * X[:, min(1, m - 1)]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return X, y


def test_axis_aligned_separable_reaches_perfect_accuracy():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 3))
    y = (X[:, 1] > 0.2).astype(float)
    model = fit_gbm(X, y, n_estimators=30, max_depth=2, learning_rate=0.3)
    dev = staged_train_deviance(model, X, y)
    assert np.all(np.diff(dev) <= 1e-12)
    preds = gbm_predict_matrix(model, X) > 0.5
    assert np.array_equal(preds, y.astype(bool))


def test_zero_learning_rate_predicts_base_rate():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 2))
    y = (rng.random(40) < 0.7).astype(float)
    model = fit_gbm(X, y, n_estimators=10, max_depth=3, learning_rate=0.0)
    expected = y.mean()
    preds = gbm_predict_matrix(model, X)
    np.testing.assert_allclose(preds, expected, atol=1e-12)


def test_matches_reference_booster_per_stage():
    rng = np.random.default_rng(2)
    X, y = _random_problem(rng, 200, 4)
    model = fit_gbm(X, y, n_estimators=25, max_depth=3, learning_rate=0.1)
    dev = staged_train_deviance(model, X, y)
    _, _, ref_dev = reference_boost(X, y, n_estimators=25, max_depth=3, learning_rate=0.1)
    np.testing.assert_allclose(dev, ref_dev, atol=1e-9)


def test_monotone_training_deviance_random_data():
    rng = np.random.default_rng(3)
    for _ in range(3):
        X, y = _random_problem(rng, 120, 5)
        model = fit_gbm(X, y, n_estimators=100, max_depth=3, learning_rate=0.1)
        dev = staged_train_deviance(model, X, y)
        assert dev.size == 101
        assert np.all(np.diff(dev) <= 1e-12)


def test_split_search_matches_exhaustive_enumeration():
    rng = np.random.default_rng(4)
    for trial in range(30):
        n = int(rng.integers(4, 65))
        x = np.round(rng.normal(size=n), 2)  # rounding injects duplicates
        r = rng.normal(size=n)
        mine = _best_split(x, r)
        oracle = enumerate_best_split(x, r)
        if oracle is None:
            assert mine is None
            continue
        assert mine is not None
        thr, score = mine
        sse_mine = float(np.sum(r**2)) - score
        assert thr == pytest.approx(oracle[0], abs=0)
        assert sse_mine == pytest.approx(oracle[1], abs=1e-9)


def _tree_bits(node):
    """Nested tuples of a tree with floats in hex, so equality is bit equality."""
    if isinstance(node, TreeNode):
        if node.is_leaf:
            return ("leaf", node.value.hex())
        return ("split", node.feature, node.threshold.hex(),
                _tree_bits(node.left), _tree_bits(node.right))
    if node[0] == "leaf":
        return ("leaf", node[1].hex())
    return ("split", node[1], node[2].hex(), _tree_bits(node[3]), _tree_bits(node[4]))


def _attack_style(rng, n):
    """``[p, 1 - p, one-hot label]``: both pairs of columns are complements."""
    p = rng.uniform(0.05, 0.95, size=n)
    label = (rng.random(n) < p).astype(float)
    return np.column_stack([p, 1.0 - p, 1.0 - label, label])


def _presort_cases():
    rng = np.random.default_rng(11)
    normal = rng.normal(size=(90, 4))
    constant = normal.copy()
    constant[:, 1] = 0.25
    return {
        "normal": normal,
        "rounded": np.round(rng.normal(size=(90, 4)), 2),
        "constant_column": constant,
        "n2": np.array([[0.3, 1.0], [-0.7, 1.0]]),
        "n3": np.array([[0.3], [0.3], [-1.2]]),
        "attack_probs": _attack_style(rng, 120),
        "attack_probs_coarse": np.round(_attack_style(rng, 120), 1),
    }


@pytest.mark.parametrize("max_depth", [0, 1, 3, 4])
@pytest.mark.parametrize("case", sorted(_presort_cases()))
def test_presorted_engine_matches_per_feature_engine_tree_for_tree(case, max_depth):
    X = _presort_cases()[case]
    rng = np.random.default_rng(max_depth)
    y = (rng.random(X.shape[0]) < 0.5).astype(float)
    y[0], y[-1] = 0.0, 1.0
    if case.startswith("attack"):
        y = np.where(rng.random(X.shape[0]) < 0.8, X[:, 3], 1.0 - X[:, 3])
    model = fit_gbm(X, y, n_estimators=15, max_depth=max_depth, learning_rate=0.1)
    base, trees = per_feature_boost(X, y, n_estimators=15, max_depth=max_depth,
                                    learning_rate=0.1)
    assert model.base_score.hex() == base.hex()
    assert [_tree_bits(t) for t in model.trees] == [_tree_bits(t) for t in trees]


def _attack_fit(n, seed):
    """An attack-style matrix whose membership label mostly follows the one-hot label."""
    rng = np.random.default_rng(seed)
    X = _attack_style(rng, n)
    return X, np.where(rng.random(n) < 0.8, X[:, 3], 1.0 - X[:, 3])


@pytest.mark.parametrize("n", [50, 400])
def test_attack_style_fit_matches_per_feature_engine_over_100_stages(n):
    X, y = _attack_fit(n, seed=n)
    model = fit_gbm(X, y, n_estimators=100, max_depth=3, learning_rate=0.1)
    base, trees = per_feature_boost(X, y, n_estimators=100, max_depth=3, learning_rate=0.1)
    assert model.base_score.hex() == base.hex()
    assert [_tree_bits(t) for t in model.trees] == [_tree_bits(t) for t in trees]


def _cache_cases():
    cases = {}
    for name, X in _presort_cases().items():
        rng = np.random.default_rng(len(name))
        y = (rng.random(X.shape[0]) < 0.5).astype(float)
        y[0], y[-1] = 0.0, 1.0
        cases.update({f"{name}_depth{depth}": (X, y, depth, 30) for depth in (1, 3, 4)})
    for n in (50, 400):
        cases[f"attack_n{n}"] = (*_attack_fit(n, seed=n + 1), 3, 100)
    return cases


@pytest.mark.parametrize("case", sorted(_cache_cases()))
def test_node_cache_cap_changes_only_speed(case, monkeypatch):
    X, y, max_depth, stages = _cache_cases()[case]
    growers = []

    class Recorded(gbm._Grower):
        def __init__(self, *args):
            super().__init__(*args)
            growers.append(self)

    monkeypatch.setattr(gbm, "_Grower", Recorded)
    fits = []
    for cap in (0, gbm._CACHE_BYTES, 2**40):
        monkeypatch.setattr(gbm, "_CACHE_BYTES", cap)
        model = fit_gbm(X, y, n_estimators=stages, max_depth=max_depth, learning_rate=0.1)
        fits.append([_tree_bits(t) for t in model.trees])
    assert fits[0] == fits[1] == fits[2]
    # no cap keeps every record it builds, a zero cap none below the root
    assert not growers[0].root.children
    if any(t[0] == "split" for t in fits[2]):
        assert growers[2].root.children and growers[2].free < 2**40


def _logistic_logits_matrix(n_train, seed):
    """A ``gbm_logits`` attack matrix of a logistic target: ``[0, w.x + b, one-hot label]``."""
    params = GenParams(d=16, n_train=n_train, n_test=n_train, mu=0.3, seed=seed)
    train, test = generate_dataset(params, "train"), generate_dataset(params, "test")
    target = fit_logistic(train)
    rows = [attacks._attack_matrix(attacks.model_outputs(target, data), ScoreKind.GBM_LOGITS)
            for data in (train, test)]
    X = np.vstack(rows)
    y = np.concatenate([np.ones(n_train), np.zeros(n_train)])
    return X, y


@pytest.mark.parametrize("n_train, seed", [(25, 0), (50, 1), (200, 2)])
def test_logistic_logits_fit_matches_per_feature_engine(n_train, seed):
    X, y = _logistic_logits_matrix(n_train, seed)
    assert np.unique(X[:, 0]).size == 1  # the constant column the grower leaves out
    model = fit_gbm(X, y, n_estimators=100, max_depth=3, learning_rate=0.1)
    base, trees = per_feature_boost(X, y, n_estimators=100, max_depth=3, learning_rate=0.1)
    assert model.base_score.hex() == base.hex()
    assert [_tree_bits(t) for t in model.trees] == [_tree_bits(t) for t in trees]
    assert any(t.feature > 0 for t in model.trees)  # splits name columns of X


def test_constant_columns_split_features_keep_their_indices():
    rng = np.random.default_rng(14)
    X, y = _random_problem(rng, 80, 3)
    padded = np.column_stack([np.full(80, 2.0), X[:, 0], np.zeros(80), X[:, 1:], np.ones(80)])
    padded[::3, 2] = -0.0  # 0.0 and -0.0 compare equal, so the column is constant
    model = fit_gbm(padded, y, n_estimators=20, max_depth=3, learning_rate=0.1)
    base, trees = per_feature_boost(padded, y, n_estimators=20, max_depth=3, learning_rate=0.1)
    assert [_tree_bits(t) for t in model.trees] == [_tree_bits(t) for t in trees]
    assert model.n_features == 6


@pytest.mark.parametrize("max_depth", [0, 3])
def test_all_constant_matrix_gives_one_leaf_per_stage(max_depth):
    X = np.column_stack([np.full(30, 0.5), np.zeros(30)])
    y = (np.arange(30) % 3 == 0).astype(float)
    model = fit_gbm(X, y, n_estimators=7, max_depth=max_depth, learning_rate=0.1)
    base, trees = per_feature_boost(X, y, n_estimators=7, max_depth=max_depth,
                                    learning_rate=0.1)
    assert len(model.trees) == 7 and all(t.is_leaf for t in model.trees)
    assert [_tree_bits(t) for t in model.trees] == [_tree_bits(t) for t in trees]


def test_fit_memory_stays_within_cache_cap():
    X, y = _attack_fit(2000, seed=12)
    tracemalloc.start()
    try:
        fit_gbm(X, y, n_estimators=100, max_depth=3, learning_rate=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gbm._CACHE_BYTES + 2 * 2**20


def test_max_depth_respected():
    rng = np.random.default_rng(5)
    X, y = _random_problem(rng, 300, 4)
    for depth in (0, 1, 3):
        model = fit_gbm(X, y, n_estimators=5, max_depth=depth, learning_rate=0.1)
        assert all(tree_depth(t) <= depth for t in model.trees)


def test_determinism():
    rng = np.random.default_rng(6)
    X, y = _random_problem(rng, 150, 3)
    a = serialize_gbm(fit_gbm(X, y, n_estimators=20, max_depth=3, learning_rate=0.1))
    b = serialize_gbm(fit_gbm(X, y, n_estimators=20, max_depth=3, learning_rate=0.1))
    assert a == b  # no randomness is consumed


def test_empty_model_and_stump_predictions():
    empty = GbmModel(trees=[], learning_rate=0.1, base_score=0.0,
                     n_estimators=0, max_depth=3, n_features=2)
    assert gbm_predict_matrix(empty, np.array([1.0, -1.0])[None, :])[0] == 0.5

    stump = GbmModel(
        trees=[TreeNode(feature=0, threshold=0.0,
                        left=TreeNode(value=-10.0), right=TreeNode(value=10.0))],
        learning_rate=1.0, base_score=0.0, n_estimators=1, max_depth=1, n_features=1,
    )
    assert gbm_predict_matrix(stump, np.array([1.0])[None, :])[0] >= 0.9999
    assert gbm_predict_matrix(stump, np.array([-1.0])[None, :])[0] <= 0.0001


def test_serialization_round_trip_bit_exact():
    rng = np.random.default_rng(7)
    X, y = _random_problem(rng, 90, 4)
    model = fit_gbm(X, y, n_estimators=15, max_depth=3, learning_rate=0.1)
    clone = deserialize_gbm(serialize_gbm(model))
    rows = rng.normal(size=(100, 4))
    assert gbm_predict_matrix(model, rows).tobytes() == gbm_predict_matrix(clone, rows).tobytes()


def test_error_paths():
    X = np.zeros((4, 2))
    with pytest.raises(DegenerateDataError):
        fit_gbm(X, np.ones(4))
    with pytest.raises(ValidationError):
        fit_gbm(X, np.array([0.0, 1.0, 2.0, 1.0]))
    with pytest.raises(ValidationError):
        fit_gbm(np.zeros((1, 2)), np.array([1.0]))
    with pytest.raises(DataError):
        fit_gbm(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0]))
    model = fit_gbm(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 0.0, 1.0, 1.0]),
                    n_estimators=2, max_depth=1)
    with pytest.raises(ValidationError):
        gbm_predict_matrix(model, np.array([0.0, 1.0])[None, :])  # width mismatch


@pytest.mark.parametrize("bad", [
    {"n_estimators": 2.5}, {"n_estimators": -1}, {"n_estimators": True}, {"n_estimators": "3"},
    {"max_depth": 1.5}, {"max_depth": -1}, {"max_depth": False}, {"max_depth": None},
    {"learning_rate": float("nan")}, {"learning_rate": float("inf")}, {"learning_rate": -0.1},
    {"learning_rate": True}, {"learning_rate": "0.1"},
])
def test_hyperparameters_must_be_nonnegative_integers_and_a_finite_rate(bad):
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        fit_gbm(X, y, **bad)


def test_numpy_scalar_hyperparameters_are_accepted():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = fit_gbm(X, y, n_estimators=np.int64(3), max_depth=np.int32(1),
                    learning_rate=np.float32(0.5))
    assert len(model.trees) == 3
