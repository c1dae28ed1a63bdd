"""Every public count, seed and real argument is checked by ``errors.integer`` or
``errors.real``: a value of the wrong type or out of range raises ``ValidationError``
with one message, never a bare ``TypeError``/``OverflowError``, and never runs."""

from fractions import Fraction

import numpy as np
import pytest

from mialab import divergence
from mialab.datagen import GenParams, generate_dataset, stream
from mialab.errors import ValidationError
from mialab.gbm import fit_gbm
from mialab.harness import SweepGrid, run_sweep
from mialab.linear_models import fit_logistic

_DATA = generate_dataset(GenParams(d=2, n_train=20, mu=0.5, seed=0), "train")
_GRID = SweepGrid(mu_values=(0.3,), d_values=(2,), n_train_values=(20,), seeds=(0,), n_test=20)
_HUGE = 10**400  # an int past the float range

# each argument, and a call that passes the value under test as that argument
ENTRY_POINTS = {
    "d": lambda v: GenParams(d=v, n_train=10, mu=0.2, seed=0),
    "n_train": lambda v: GenParams(d=4, n_train=v, mu=0.2, seed=0),
    "n_test": lambda v: GenParams(d=4, n_train=10, n_test=v, mu=0.2, seed=0),
    "seed": lambda v: GenParams(d=4, n_train=10, mu=0.2, seed=v),
    "mu": lambda v: GenParams(d=4, n_train=10, mu=v, seed=0),
    "stream_seed": lambda v: stream("train", v),
    "trials": lambda v: divergence.certify(v, 3, 3),
    "x_size": lambda v: divergence.certify(3, v, 3),
    "certify_seed": lambda v: divergence.certify(3, 3, 3, seed=v),
    "n_estimators": lambda v: fit_gbm(_DATA.features, _DATA.labels > 0, n_estimators=v),
    "max_depth": lambda v: fit_gbm(_DATA.features, _DATA.labels > 0, max_depth=v),
    "learning_rate": lambda v: fit_gbm(_DATA.features, _DATA.labels > 0, learning_rate=v),
    "max_iter": lambda v: fit_logistic(_DATA, max_iter=v),
    "tol": lambda v: fit_logistic(_DATA, tol=v),
    "workers": lambda v: run_sweep(_GRID, workers=v),
    "base_seed": lambda v: run_sweep(_GRID, base_seed=v),
}

REJECTED = [
    ("d", 0, "d must be >= 1, got 0"),
    ("d", True, "d must be an integer, got True"),
    ("n_train", 1, "n_train must be >= 2, got 1"),
    ("n_train", 50.5, "n_train must be an integer, got 50.5"),
    ("n_test", np.float64(100.0), "n_test must be an integer, got np.float64(100.0)"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("seed", "1", "seed must be an integer, got '1'"),
    ("mu", _HUGE, f"mu must be a nonnegative real, got {_HUGE}"),
    ("mu", "0.1", "mu must be a real number, got '0.1'"),
    ("stream_seed", -1, "seed must be >= 0, got -1"),
    ("stream_seed", np.int64(-1), "seed must be >= 0, got np.int64(-1)"),
    ("trials", -1, "trials must be >= 0, got -1"),
    ("trials", 2.5, "trials must be an integer, got 2.5"),
    ("x_size", "6", "x_size must be an integer, got '6'"),
    ("certify_seed", True, "seed must be an integer, got True"),
    ("n_estimators", -1, "n_estimators must be >= 0, got -1"),
    ("n_estimators", np.float64(3.0), "n_estimators must be an integer, got np.float64(3.0)"),
    ("max_depth", True, "max_depth must be an integer, got True"),
    ("learning_rate", _HUGE, f"learning_rate must be a finite number >= 0, got {_HUGE}"),
    ("learning_rate", True, "learning_rate must be a real number, got True"),
    ("learning_rate", Fraction(1, 10), "learning_rate must be a real number, got Fraction(1, 10)"),
    ("max_iter", 0, "max_iter must be >= 1, got 0"),
    ("max_iter", 2.5, "max_iter must be an integer, got 2.5"),
    ("max_iter", True, "max_iter must be an integer, got True"),
    ("max_iter", "5", "max_iter must be an integer, got '5'"),
    ("tol", True, "tol must be a real number, got True"),
    ("tol", "1e-8", "tol must be a real number, got '1e-8'"),
    ("tol", _HUGE, f"tol must be finite and > 0, got {_HUGE}"),
    ("workers", True, "workers must be an integer, got True"),
    ("workers", 2.5, "workers must be an integer, got 2.5"),
    ("workers", "2", "workers must be an integer, got '2'"),
    ("workers", np.int64(0), "workers must be >= 1, got np.int64(0)"),
    ("base_seed", 2.5, "base_seed must be an integer, got 2.5"),
    ("base_seed", "3", "base_seed must be an integer, got '3'"),
    ("base_seed", True, "base_seed must be an integer, got True"),
]


@pytest.mark.parametrize("argument, value, message", REJECTED, ids=[
    f"{a}-{type(v).__name__}-{i}" for i, (a, v, _) in enumerate(REJECTED)])
def test_argument_of_wrong_type_or_range_raises_validation_error(argument, value, message):
    with pytest.raises(ValidationError) as exc:
        ENTRY_POINTS[argument](value)
    assert str(exc.value) == message


@pytest.mark.parametrize("argument, value", [
    ("d", np.int32(4)), ("seed", np.uint8(3)), ("stream_seed", _HUGE), ("mu", np.float32(0.2)),
    ("max_iter", np.int64(5)), ("tol", np.float32(1e-6)), ("workers", np.int64(1)),
    ("base_seed", -3), ("base_seed", np.int64(7)),
])
def test_numpy_scalars_and_negative_base_seeds_are_accepted(argument, value):
    ENTRY_POINTS[argument](value)
