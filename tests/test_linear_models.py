import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from mialab import linear_models
from mialab.attacks import accuracy, model_outputs
from mialab.datagen import Dataset, GenParams, generate_dataset
from mialab.errors import DataError, DegenerateDataError, MialabError, ValidationError
from mialab.linear_models import (
    LdaModel,
    LogisticModel,
    _logistic_objective,
    deserialize_model,
    fit_lda,
    fit_logistic,
    lda_log_joints,
    logistic_margins,
    logistic_posteriors,
    serialize_model,
    softmax_pairs,
)

from _reference_lda import lda_log_joints as reference_lda_log_joints


def _posteriors(model, X):
    return logistic_posteriors(logistic_margins(model, X))


def _dataset(features, labels):
    features = np.asarray(features, dtype=np.float64)
    return Dataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        contaminated_mask=np.zeros(len(labels), dtype=bool),
    )


def _random_dataset(n, d, seed, mu=0.3):
    return generate_dataset(GenParams(d=d, n_train=n, mu=mu, seed=seed), "train")


# ---------------------------------------------------------------- logistic


def test_logistic_separable_classifies_train_perfectly():
    x = np.concatenate([np.linspace(-2, -1, 10), np.linspace(1, 2, 10)])
    data = _dataset(x[:, None], [-1] * 10 + [1] * 10)
    model = fit_logistic(data)
    assert accuracy(model_outputs(model, data)) == 1.0


def test_logistic_symmetry_of_objective():
    data = _random_dataset(60, 5, seed=2)
    a = fit_logistic(data)
    # flipping labels negates the optimum (weights and bias)
    label_flip = _dataset(data.features, -data.labels)
    b = fit_logistic(label_flip)
    np.testing.assert_allclose(b.weights, -a.weights, atol=1e-8)
    assert b.bias == pytest.approx(-a.bias, abs=1e-8)
    # negating features too restores the weights and keeps the bias negated
    both = _dataset(-data.features, -data.labels)
    c = fit_logistic(both)
    np.testing.assert_allclose(c.weights, a.weights, atol=1e-8)
    assert c.bias == pytest.approx(-a.bias, abs=1e-8)


def test_logistic_gradient_matches_finite_differences():
    data = _random_dataset(50, 16, seed=4)
    model = fit_logistic(data, tol=1e-8)
    assert model.converged

    X, y = data.features, data.labels.astype(float)
    theta = np.concatenate([model.weights, [model.bias]])
    _, grad = _logistic_objective(theta, X, y)
    assert np.max(np.abs(grad)) <= 1e-8

    # central differences at a nearby non-optimal point, where the gradient
    # is large enough for a relative comparison
    theta_off = theta + 0.05
    _, grad_off = _logistic_objective(theta_off, X, y)
    step = 1e-6
    rng = np.random.default_rng(0)
    for j in rng.choice(theta.size, size=8, replace=False):
        e = np.zeros_like(theta_off)
        e[j] = step
        lo, _ = _logistic_objective(theta_off - e, X, y)
        hi, _ = _logistic_objective(theta_off + e, X, y)
        fd = (hi - lo) / (2 * step)
        assert fd == pytest.approx(grad_off[j], rel=1e-4)


# separable fits converge too: their margins saturate at the clip, where the gradient vanishes
@pytest.mark.parametrize("d, n, epsilon, max_iter, converged", [
    (16, 200, 0.02, 10_000, True),   # contaminated
    (64, 50, 0.0, 10_000, True),     # separable: n < d
    (256, 200, 0.02, 10_000, True),  # contaminated and separable
    (16, 200, 0.02, 3, False),       # contaminated, stopped by max_iter
    (64, 50, 0.0, 3, False),         # separable, stopped by max_iter
])
def test_logistic_converged_agrees_with_a_fresh_gradient(d, n, epsilon, max_iter, converged):
    data = generate_dataset(GenParams(d=d, n_train=n, mu=0.3, epsilon=epsilon, seed=7), "train")
    model = fit_logistic(data, max_iter=max_iter)
    theta = np.concatenate([model.weights, [model.bias]])
    _, grad = _logistic_objective(theta, data.features, data.labels.astype(float))
    assert model.converged == (np.max(np.abs(grad)) <= 1e-8) == converged


def test_logistic_errors(recwarn):
    data = _dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(DegenerateDataError):
        fit_logistic(data)
    bad = _dataset([[np.nan], [1.0]], [-1, 1])
    with pytest.raises(DataError):
        fit_logistic(bad)
    with pytest.raises(ValidationError):
        fit_logistic(_random_dataset(10, 2, seed=0), max_iter=0)
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValidationError, match="tol must be finite and > 0"):
            fit_logistic(_random_dataset(10, 2, seed=0), tol=tol)

    # finite features near the float limit overflow the margins of the first step
    huge = generate_dataset(GenParams(d=3, n_train=5, mu=0.1, seed=0, epsilon=0.5,
                                      tau_mult=1e308), "train")
    assert np.isfinite(huge.features).all() and np.abs(huge.features).max() > 1e307
    for data in (huge, _dataset([[1e308], [-1e308], [1e308], [-1e308]], [1, -1, 1, -1])):
        with pytest.raises(DataError, match="logistic loss or gradient is not finite"):
            fit_logistic(data)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_logistic_posterior_values():
    model = LogisticModel(weights=np.zeros(2), bias=0.0, converged=True, iterations=0)
    np.testing.assert_allclose(_posteriors(model, np.array([1.0, 2.0])[None, :])[0],
                               [0.5, 0.5])

    saturated = LogisticModel(weights=np.zeros(2), bias=50.0, converged=True, iterations=0)
    assert _posteriors(saturated, np.zeros(2)[None, :])[0, 1] >= 1 - 1e-20

    unit = LogisticModel(weights=np.array([1.0]), bias=0.0, converged=True, iterations=0)
    assert _posteriors(unit, np.array([1.0])[None, :])[0, 1] == pytest.approx(
        0.7310585786, abs=1e-9)


def test_posterior_pairs_normalized():
    rng = np.random.default_rng(1)
    model = LogisticModel(weights=rng.normal(size=6), bias=0.3, converged=True, iterations=0)
    X = rng.normal(size=(200, 6)) * 20
    P = _posteriors(model, X)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------- lda


def test_lda_recovers_empirical_estimators_in_1d():
    x = np.array([[-1.0], [-1.2], [-0.8], [1.0], [1.2], [0.8]])
    data = _dataset(x, [-1, -1, -1, 1, 1, 1])
    model = fit_lda(data)
    assert model.prior_pos == pytest.approx(0.5)
    assert model.mean_pos[0] == pytest.approx(1.0)
    assert model.mean_neg[0] == pytest.approx(-1.0)


def test_lda_positive_definite_when_n_below_d():
    data = _random_dataset(50, 256, seed=0)
    model = fit_lda(data)
    assert np.isfinite(model.log_det)
    assert np.all(np.diag(model.chol_lower) > 0)


def test_lda_shrinkage_intensity_tracks_structure():
    rng = np.random.default_rng(3)
    n, d = 4000, 8
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    # strongly correlated features, n >> d: the sample is trustworthy and far
    # from the spherical target, so the data-driven intensity stays small
    base = rng.normal(size=(n, 2))
    X = np.hstack([base[:, :1]] * 4 + [base[:, 1:]] * 4) + 0.1 * rng.normal(size=(n, d))
    model = fit_lda(_dataset(X, labels))
    assert model.shrinkage_intensity <= 0.1
    # truth equal to the target: full shrinkage is optimal and harmless
    iso = fit_lda(_dataset(rng.normal(size=(n, d)), labels))
    assert iso.shrinkage_intensity >= 0.5


def test_lda_shrinkage_matches_brute_force_ledoit_wolf():
    # oracle: textbook Ledoit-Wolf on the standardized class-centered sample,
    # with the per-sample sum computed by explicit outer products
    rng = np.random.default_rng(5)
    n, d = 40, 6
    X = rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) * 0.5
    labels = np.concatenate([np.full(20, -1), np.full(20, 1)])
    data = _dataset(X, labels)
    model = fit_lda(data)

    centered = X.copy()
    for c in (-1, 1):
        centered[labels == c] -= X[labels == c].mean(axis=0)
    pooled = centered.T @ centered / n
    scale = np.sqrt(np.diag(pooled))
    Z = centered / scale
    S = pooled / np.outer(scale, scale)
    mu = np.trace(S) / d
    delta = np.sum((S - mu * np.eye(d)) ** 2) / d
    beta_bar = 0.0
    for row in Z:
        beta_bar += np.sum((np.outer(row, row) - S) ** 2) / d
    beta_bar /= n**2
    expected = min(beta_bar, delta) / delta
    assert model.shrinkage_intensity == pytest.approx(expected, abs=1e-10)


def test_lda_errors(recwarn):
    data = _dataset([[0.0], [1.0], [2.0]], [1, 1, -1])
    with pytest.raises(DegenerateDataError):
        fit_lda(data)  # negative class has a single sample

    # finite features whose class sums, or whose squares, overflow
    huge = _dataset([[1.5e308], [1.7e308], [-1.0], [1.0]], [1, 1, -1, -1])
    with pytest.raises(DataError, match="class means are not finite"):
        fit_lda(huge)
    spread = _dataset([[1e200], [-1e200], [-1.0], [1.0]], [1, 1, -1, -1])
    with pytest.raises(DataError, match="shrunk covariance is not finite"):
        fit_lda(spread)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    model = fit_lda(_random_dataset(20, 2, seed=0))
    for bad in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(DataError, match="rows are not finite once centred"):
            lda_log_joints(model, np.array([[0.0, 0.0], bad]))


def test_lda_posterior_symmetry_and_prior_only_cases():
    cov = np.eye(2)
    chol = np.linalg.cholesky(cov)
    model = LdaModel(
        prior_pos=0.5,
        mean_pos=np.array([1.0, 0.0]),
        mean_neg=np.array([-1.0, 0.0]),
        chol_lower=chol,
        shrinkage_intensity=0.0,
        log_det=0.0,
    )
    np.testing.assert_allclose(
        softmax_pairs(lda_log_joints(model, np.array([0.0, 5.0])[None, :]))[0], [0.5, 0.5],
        atol=1e-12)

    skew = LdaModel(
        prior_pos=0.7,
        mean_pos=np.zeros(2),
        mean_neg=np.zeros(2),
        chol_lower=chol,
        shrinkage_intensity=0.0,
        log_det=0.0,
    )
    for x in ([0.0, 0.0], [3.0, -2.0], [100.0, 7.0]):
        np.testing.assert_allclose(
            softmax_pairs(lda_log_joints(skew, np.array(x)[None, :]))[0], [0.3, 0.7], atol=1e-12)


def test_lda_posterior_matches_bayes_rule_oracle():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(2, 2))
    cov = A @ A.T + 0.5 * np.eye(2)
    model = LdaModel(
        prior_pos=0.35,
        mean_pos=rng.normal(size=2),
        mean_neg=rng.normal(size=2),
        chol_lower=np.linalg.cholesky(cov),
        shrinkage_intensity=0.0,
        log_det=float(np.linalg.slogdet(cov)[1]),
    )
    for _ in range(20):
        x = rng.normal(size=2) * 3
        f_pos = multivariate_normal.pdf(x, mean=model.mean_pos, cov=cov)
        f_neg = multivariate_normal.pdf(x, mean=model.mean_neg, cov=cov)
        post_pos = 0.35 * f_pos / (0.35 * f_pos + 0.65 * f_neg)
        np.testing.assert_allclose(softmax_pairs(lda_log_joints(model, x[None, :]))[0],
                                   [1 - post_pos, post_pos], atol=1e-10)


def test_lda_log_joint_at_mean_identity_covariance():
    d = 3
    model = LdaModel(
        prior_pos=0.5,
        mean_pos=np.ones(d),
        mean_neg=-np.ones(d),
        chol_lower=np.eye(d),
        shrinkage_intensity=0.0,
        log_det=0.0,
    )
    expected = np.log(0.5) - 0.5 * d * np.log(2 * np.pi)
    assert lda_log_joints(model, np.ones(d)[None, :])[0, 1] == pytest.approx(expected, abs=1e-12)


def test_lda_log_joint_matches_quadratic_form_oracle():
    rng = np.random.default_rng(9)
    data = _random_dataset(80, 4, seed=9)
    model = fit_lda(data)
    covariance = model.chol_lower @ model.chol_lower.T
    inv = np.linalg.inv(covariance)
    sign, logdet = np.linalg.slogdet(covariance)
    assert sign > 0
    x = rng.normal(size=4)
    lj = lda_log_joints(model, x[None, :])[0]
    for idx, (prior, mean) in enumerate(
        [(1 - model.prior_pos, model.mean_neg), (model.prior_pos, model.mean_pos)]
    ):
        diff = x - mean
        oracle = (
            np.log(prior)
            - 0.5 * (4 * np.log(2 * np.pi) + logdet)
            - 0.5 * diff @ inv @ diff
        )
        assert lj[idx] == pytest.approx(oracle, abs=1e-10)


def _lda_and_rows(d, n, offset=0.0):
    """An LDA fit on 50 training rows and n test rows of one cell, every feature shifted by offset."""
    params = GenParams(d=d, n_train=50, mu=0.3, seed=d + n, n_test=max(n, 2))
    train = generate_dataset(params, "train")
    model = fit_lda(_dataset(train.features + offset, train.labels))
    return model, generate_dataset(params, "test").features[:n] + offset


def _badly_scaled_lda_and_rows(d):
    """An LDA fit with near-zero shrinkage on 4000 rows, and 4000 test rows.

    Every feature shares one common factor (correlation 0.99), and the
    feature scales run from 1e-4 to 1e4, so ``chol_lower`` is badly
    conditioned and the whitener ``L^-1`` has entries spread over 8 decades.
    """
    rng = np.random.default_rng(d)
    scales = np.logspace(-4.0, 4.0, d)

    def draw(n):
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        rows = (np.sqrt(0.99) * rng.normal(size=(n, 1)) + np.sqrt(0.01) * rng.normal(size=(n, d))
                + 0.1 * labels[:, None])
        return rows * scales, labels

    model = fit_lda(_dataset(*draw(4000)))
    assert model.shrinkage_intensity < 1e-3
    assert np.linalg.cond(model.chol_lower) > 1e8
    return model, draw(4000)[0]


# At offset 1e6, whitening uncentred rows would cancel two ~1e6-scale whitened vectors.
_LOG_JOINT_CASES = [
    *(pytest.param(functools.partial(_lda_and_rows, d, n, offset), id=f"{d}-{n}-{offset}")
      for d in (1, 16, 256) for n in (1, 50, 4000) for offset in (0.0, 1e6)),
    *(pytest.param(functools.partial(_badly_scaled_lda_and_rows, d), id=f"badly_scaled-{d}")
      for d in (64, 256)),
]


@pytest.mark.parametrize("case", _LOG_JOINT_CASES)
def test_lda_log_joints_match_per_class_solves(case):
    model, X = case()
    np.testing.assert_allclose(lda_log_joints(model, X), reference_lda_log_joints(model, X),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d, n", [(1, 1), (1, 4000), (16, 50), (33, 4000), (256, 4000)])
def test_lda_quadratic_block_cap_changes_no_bit(d, n, monkeypatch):
    model, X = _lda_and_rows(d, n, offset=3.0)
    outs = []
    for cap in (1, 7 * d, linear_models._QUAD_BLOCK_ELEMENTS, 2**40):
        monkeypatch.setattr(linear_models, "_QUAD_BLOCK_ELEMENTS", cap)
        outs.append(lda_log_joints(model, X).tobytes())
    assert len(set(outs)) == 1


def test_lda_log_joints_keep_one_row_sized_temporary():
    # the centred copy the whitening overwrites; the quadratic passes stay in blocks
    model, X = _lda_and_rows(256, 4000)
    lda_log_joints(model, X)  # caches the whitener
    tracemalloc.start()
    try:
        lda_log_joints(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes + 2 * 2**20


def test_lda_log_joints_solve_only_for_the_whitener_once_per_model(monkeypatch):
    model, X = _lda_and_rows(16, 50)
    other, _ = _lda_and_rows(16, 1)
    shapes = []

    def recording(a, b, **kwargs):
        shapes.append(np.shape(b))
        return solve_triangular(a, b, **kwargs)

    monkeypatch.setattr("mialab.linear_models.solve_triangular", recording)
    first = lda_log_joints(model, X)
    for _ in range(2):
        assert lda_log_joints(model, X).tobytes() == first.tobytes()
    lda_log_joints(other, X)
    # one d x d solve per model for its whitener, and none the size of the data
    assert shapes == [(16, 16), (16, 16)]


def test_softmax_shift_invariance():
    rng = np.random.default_rng(11)
    data = _random_dataset(60, 3, seed=11)
    model = fit_lda(data)
    X = rng.normal(size=(50, 3))
    lj = lda_log_joints(model, X)
    base = softmax_pairs(lda_log_joints(model, X))
    for c in (1.0, -17.5, 300.0):
        shifted = np.exp(lj + c - (lj + c).max(axis=1, keepdims=True))
        shifted /= shifted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_pairs_equal_the_row_reduction_form():
    rng = np.random.default_rng(12)
    logits = rng.normal(scale=30.0, size=(500, 2))
    logits[:50, 1] = logits[:50, 0]  # equal pairs
    logits[50:60] = [[0.0, -0.0], [-0.0, 0.0], [-800.0, 0.0], [0.0, -800.0], [-1e300, 5.0],
                     [7.0, -1e300], [1e-300, -1e-300], [-745.0, 0.0], [3.0, 3.0], [-0.0, -0.0]]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    assert softmax_pairs(logits).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()


# ---------------------------------------------------------------- shared


def test_predict_tie_goes_positive():
    model = LogisticModel(weights=np.zeros(1), bias=0.0, converged=True, iterations=0)
    assert accuracy(model_outputs(model, _dataset([[123.0]], [1]))) == 1.0
    assert accuracy(model_outputs(model, _dataset([[123.0]], [-1]))) == 0.0


def test_accuracy_high_signal_cell():
    # one informative dimension with mu/sigma = 3.33: near-zero Bayes error
    params = GenParams(d=16, n_train=2000, mu=0.5, seed=1)
    train = generate_dataset(params, "train")
    test = generate_dataset(params, "test")
    model = fit_lda(train)
    assert accuracy(model_outputs(model, test)) > 0.95


def test_serialization_round_trip_bit_exact():
    rng = np.random.default_rng(13)
    data = _random_dataset(50, 6, seed=13)
    X = rng.normal(size=(40, 6))
    for fit in (fit_logistic, fit_lda):
        model = fit(data)
        clone = deserialize_model(serialize_model(model))
        if isinstance(model, LogisticModel):
            a = _posteriors(model, X)
            b = _posteriors(clone, X)
        else:
            a = softmax_pairs(lda_log_joints(model, X))
            b = softmax_pairs(lda_log_joints(clone, X))
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 6])
@pytest.mark.parametrize("fit", [fit_logistic, fit_lda])
def test_serialized_text_round_trips_with_keys_in_field_order(fit, d):
    text = serialize_model(fit(_random_dataset(50, d, seed=13)))
    model = deserialize_model(text)
    assert serialize_model(model) == text
    assert list(json.loads(text)) == ["kind", *(f.name for f in dataclasses.fields(model))]


def test_deserialize_rejects_garbage():
    with pytest.raises(ValidationError):
        deserialize_model("{not json")
    with pytest.raises(ValidationError):
        deserialize_model('{"kind": "mystery"}')


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12,
)
_MODEL_KEYS = ("kind", "weights", "bias", "converged", "iterations", "prior_pos",
               "mean_pos", "mean_neg", "chol_lower", "shrinkage_intensity", "log_det")


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["lda", "logistic"])},
        optional={key: _JSON_VALUES for key in _MODEL_KEYS[1:]}),
    st.dictionaries(st.sampled_from(_MODEL_KEYS), _JSON_VALUES),
    _JSON_VALUES,
))
def test_deserialize_model_fuzz_raises_only_mialab_errors(payload):
    try:
        model = deserialize_model(json.dumps(payload))
    except MialabError:
        return
    # whatever loads is a usable model of its own dimension
    X = np.zeros((1, model.d))
    P = (softmax_pairs(lda_log_joints(model, X)) if isinstance(model, LdaModel)
         else _posteriors(model, X))
    assert P.shape == (1, 2)
