import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab import datagen
from mialab.datagen import (
    GenParams,
    _contaminate,
    generate_dataset,
    read_csv,
    write_csv,
)
from mialab.errors import MialabError, ValidationError

from _payloads import table_payloads


def test_param_validation():
    good = dict(d=4, n_train=10, mu=0.2, seed=0)
    GenParams(**good)
    for bad in (
        dict(good, d=0),
        dict(good, n_train=1),
        dict(good, n_test=1),
        dict(good, mu=-0.1),
        dict(good, sigma=0.0),
        dict(good, sigma_noise=-1.0),
        dict(good, w=0.0),
        dict(good, w=1.0),
        dict(good, epsilon=1.0),
        dict(good, epsilon=-0.01),
        dict(good, tau_mult=0.0),
        dict(good, tau_mult=-1.0),
        dict(good, seed=-1),
        # bools, and values that are not integers or not reals, are rejected by type
        dict(good, n_train=50.5),
        dict(good, n_test=100.5),
        dict(good, mu="0.1"),
        dict(good, sigma=None),
        dict(good, w="0.5"),
        dict(good, d=True),
        dict(good, seed=True),
        dict(good, n_train=True),
        dict(good, n_test=np.float64(100.0)),
        dict(good, sigma_noise=True),
        dict(good, epsilon=False),
        dict(good, tau_mult=1 + 2j),
        dict(good, seed=1.0),
        # ints past the float range
        *(dict(good, **{name: 10**400}) for name in ("mu", "sigma", "sigma_noise", "w",
                                                     "epsilon", "tau_mult")),
    ):
        with pytest.raises(ValidationError):
            GenParams(**bad)
    # an int past the float range gets the field's own message, not numpy's TypeError
    with pytest.raises(ValidationError, match="^sigma must be positive, got 1000"):
        GenParams(**dict(good, sigma=10**400))


def test_bad_split_rejected():
    with pytest.raises(ValidationError):
        generate_dataset(GenParams(d=2, n_train=4, mu=0.0, seed=0), "validation")


def test_shapes_and_label_domain():
    params = GenParams(d=1, n_train=4, mu=0.0, sigma=1.0, seed=3)
    data = generate_dataset(params, "train")
    assert data.features.shape == (4, 1)
    assert set(np.unique(data.labels)) <= {-1, 1}
    # mu=0 makes the core label-independent; both classes show up across seeds
    seen = set()
    for seed in range(20):
        d = generate_dataset(GenParams(d=1, n_train=4, mu=0.0, sigma=1.0, seed=seed), "train")
        seen.update(np.unique(d.labels).tolist())
    assert seen == {-1, 1}


def test_determinism_bit_identical():
    params = GenParams(d=8, n_train=64, mu=0.3, seed=11, epsilon=0.1)
    a = generate_dataset(params, "train")
    b = generate_dataset(params, "train")
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.contaminated_mask, b.contaminated_mask)
    c = generate_dataset(params, "test")
    assert c.features.shape[0] == params.n_test
    assert c.features[: a.n].tobytes() != a.features.tobytes()


def _one_call_dataset(params, split):
    """The generation stream drawn the plain way: all noise in one call, then ``hstack``."""
    tag = {"train": 0, "test": 1}[split]
    n = params.n_train if split == "train" else params.n_test
    rng = np.random.default_rng(np.random.SeedSequence(entropy=params.seed, spawn_key=(tag,)))
    labels = np.where(rng.random(n) < params.w, 1, -1).astype(np.int64)
    core = rng.normal(labels * params.mu, params.sigma)
    noise = rng.normal(0.0, params.sigma_noise, size=(n, params.d - 1))
    features = np.hstack([core[:, None], noise])
    mask = np.zeros(n, dtype=bool)
    if params.epsilon > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=params.seed, spawn_key=(2, tag)))
        mask = rng.random(n) < params.epsilon
        if mask.any():
            features[mask] = rng.normal(0.0, params.tau, size=(int(mask.sum()), params.d))
    return features, labels, mask


# every random stream's spawn key, written out
_SPAWN_KEYS = {"train": (0,), "test": (1,), "train_contamination": (2, 0),
               "test_contamination": (2, 1), "gbm_split": (3,), "certification": (7,)}


@pytest.mark.parametrize("name", list(_SPAWN_KEYS))
def test_each_stream_draws_from_its_spawn_key(name):
    assert set(datagen.STREAMS) == set(_SPAWN_KEYS)
    want = np.random.default_rng(np.random.SeedSequence(entropy=23, spawn_key=_SPAWN_KEYS[name]))
    assert datagen.stream(name, 23).random(8).tobytes() == want.random(8).tobytes()


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got True"), (1.0, "seed must be an integer, got 1.0"),
    ("1", "seed must be an integer, got '1'"), (-1, "seed must be >= 0, got -1"),
])
def test_stream_rejects_seeds_that_are_not_nonnegative_integers(seed, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        datagen.stream("train", seed)


@pytest.mark.parametrize("cap", [1, 7, datagen._NOISE_BLOCK_ELEMENTS])
@pytest.mark.parametrize("epsilon", [0.0, 0.3])
@pytest.mark.parametrize("n", [1, 2, 127, 4097])
@pytest.mark.parametrize("d", [1, 2, 16, 257])
def test_row_block_draws_match_one_call_draw(d, n, epsilon, cap, monkeypatch):
    monkeypatch.setattr(datagen, "_NOISE_BLOCK_ELEMENTS", cap)
    params = GenParams(d=d, n_train=2, n_test=max(n, 2), mu=0.3, seed=17 + d,
                       sigma_noise=1.7, epsilon=epsilon)
    # a one-row split is below what GenParams accepts, but the stream is defined for it
    object.__setattr__(params, "n_train", n)
    for split in ("train", "test"):
        data = generate_dataset(params, split)
        features, labels, mask = _one_call_dataset(params, split)
        assert data.features.tobytes() == features.tobytes()
        assert data.labels.tobytes() == labels.tobytes()
        assert data.contaminated_mask.tobytes() == mask.tobytes()


def test_test_split_draw_keeps_no_whole_matrix_temporary():
    # contamination replaces its rows in the drawn matrix, so a contaminated
    # split holds no second copy either
    for epsilon in (0.0, 0.02):
        params = GenParams(d=256, n_train=2, n_test=4000, mu=0.3, seed=3, epsilon=epsilon)
        generate_dataset(params, "test")  # warm up
        tracemalloc.start()
        try:
            data = generate_dataset(params, "test")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.contaminated_mask.any() == (epsilon > 0.0)
        assert peak < data.features.nbytes + 2**20, epsilon


def test_core_column_conditional_means():
    params = GenParams(d=16, n_train=50, mu=0.3, seed=5)
    data = generate_dataset(params, "train")
    for y in (-1, 1):
        rows = data.features[data.labels == y, 0]
        assert rows.size > 5
        bound = 3.0 * params.sigma / np.sqrt(rows.size)
        assert abs(rows.mean() - y * params.mu) <= bound


def test_total_expectation_of_core_is_zero():
    # E[x_core] = w*mu + (1-w)*(-mu) = 0 at w = 0.5
    params = GenParams(d=1, n_train=1_000_000, mu=0.2, sigma=1.0, seed=7)
    data = generate_dataset(params, "train")
    assert abs(data.features[:, 0].mean()) <= 0.003


def test_class_prior_frequency():
    for w in (0.3, 0.5):
        params = GenParams(d=1, n_train=100_000, mu=0.1, w=w, seed=2)
        data = generate_dataset(params, "train")
        frac = np.mean(data.labels == 1)
        assert abs(frac - w) <= 3.0 * np.sqrt(w * (1 - w) / params.n_train)


def test_matched_distributions_two_sample_mean():
    # z-test on the core column at alpha=0.05 should reject near nominal rate
    rejections = 0
    for seed in range(100):
        params = GenParams(d=2, n_train=400, n_test=400, mu=0.25, seed=seed)
        tr = generate_dataset(params, "train")
        te = generate_dataset(params, "test")
        diff = tr.features[:, 0].mean() - te.features[:, 0].mean()
        pooled_var = tr.features[:, 0].var(ddof=1) / 400 + te.features[:, 0].var(ddof=1) / 400
        if abs(diff / np.sqrt(pooled_var)) > 1.96:
            rejections += 1
    assert rejections <= 12


def test_contaminate_zero_epsilon_is_identity():
    params = GenParams(d=4, n_train=32, mu=0.2, seed=1)
    data = generate_dataset(params, "train")
    clean = data.features.copy()
    _contaminate(data, 0.0, 1.0, np.random.default_rng(9))
    assert np.array_equal(data.features, clean)
    assert not data.contaminated_mask.any()


def test_contaminate_epsilon_one_replaces_everything():
    params = GenParams(d=6, n_train=20_000, mu=0.4, sigma=0.1, seed=4)
    data = generate_dataset(params, "train")
    tau = 10.0
    out = generate_dataset(replace(params, epsilon=0.999999, tau_mult=tau), "train")
    assert out.contaminated_mask.all()
    assert np.array_equal(out.labels, data.labels)
    var = out.features.var(axis=0)
    assert np.all(np.abs(var - tau**2) <= 0.05 * tau**2)


def test_contamination_rate_and_clean_rows_preserved():
    params = GenParams(d=8, n_train=20_000, mu=0.3, seed=6, epsilon=0.02, tau_mult=10.0)
    dirty = generate_dataset(params, "train")
    rate = dirty.contaminated_mask.mean()
    assert abs(rate - 0.02) <= 0.004
    clean = generate_dataset(
        GenParams(d=8, n_train=20_000, mu=0.3, seed=6, epsilon=0.0), "train"
    )
    keep = ~dirty.contaminated_mask
    # epsilon only swaps rows out; untouched rows are bit-identical
    assert dirty.features[keep].tobytes() == clean.features[keep].tobytes()
    assert np.array_equal(dirty.labels, clean.labels)
    # replaced rows have the contamination scale
    repl = dirty.features[dirty.contaminated_mask]
    assert abs(repl.std() - params.tau) / params.tau < 0.1


def test_csv_round_trip(tmp_path):
    params = GenParams(d=3, n_train=16, mu=0.2, seed=8, epsilon=0.3)
    data = generate_dataset(params, "train")
    path = tmp_path / "data.csv"
    write_csv(data, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "y,x0,x1,x2,contam"
    back = read_csv(str(path))
    assert np.array_equal(back.labels, data.labels)
    assert np.array_equal(back.contaminated_mask, data.contaminated_mask)
    np.testing.assert_allclose(back.features, data.features, rtol=1e-8)


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError):
        read_csv(str(path))
    path.write_text("y,x0,contam\n2,0.5,0\n")
    with pytest.raises(ValidationError):
        read_csv(str(path))


@settings(max_examples=300, deadline=None)
@given(st.one_of(*(table_payloads(",".join(["y", *(f"x{i}" for i in range(d)), "contam"]))
                   for d in (1, 3))))
def test_read_csv_raises_only_typed_errors(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(payload)
    try:
        read_csv(str(path))
    except MialabError:
        pass
