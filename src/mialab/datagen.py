"""Synthetic core-plus-noise binary classification data.

A sample ``x`` in R^d has one informative coordinate (column 0) drawn from
``N(y * mu, sigma^2)`` for label ``y`` in {-1, +1}, and ``d - 1`` nuisance
coordinates drawn i.i.d. from ``N(0, sigma_noise^2)``.  Labels are +1 with
probability ``w``.  Train and test sets are drawn from the same law, so a
held-out point differs from a training point only by membership.

Optionally, each row is independently replaced with probability ``epsilon``
by a label-independent draw from ``N(0, tau^2 I_d)`` with
``tau = tau_mult * sigma_noise``; labels are kept unchanged and the
replacement is recorded in ``contaminated_mask``.

Randomness contract
-------------------
Every random draw in mialab comes from this module: :func:`stream` builds a
numpy PCG64 generator from ``SeedSequence(seed, spawn_key=STREAMS[name])``,
and no other module builds a seed sequence or a generator.  The streams:

* ``train``, ``test``        -> spawn keys ``(0,)``, ``(1,)``: the two splits
* ``train_contamination``,
  ``test_contamination``     -> ``(2, 0)``, ``(2, 1)``: each split's contamination
* ``gbm_split``              -> ``(3,)``: the boosted attack's downsampling and split
* ``certification``          -> ``(7,)``: the Dirichlet pairs of the bound certifier

A sweep seeds each (cell, seed) work item with :func:`cell_seed`, a
splitmix64 mix of the base seed, the grid seed entry and the bits of every
``GenParams`` field but ``seed``, so results never depend on enumeration or
scheduling order.  Its boosted attacks take the seed
:func:`gbm_split_seed`, ``splitmix64(cell seed ^ 0xA77ACC)``.

Within a stream the draw order is fixed (label uniforms, then core normals,
then noise normals), so identical ``(GenParams, split)`` produce
bit-identical datasets.  The noise normals are drawn in row blocks of at
most ``_NOISE_BLOCK_ELEMENTS`` values, each written straight into the
feature matrix; a sized draw takes the stream in row-major order, so the
blocks hold the values one ``(n, d - 1)`` draw would.  Clean draws never
consume from the contamination stream: datasets generated with the same
seed at ``epsilon = 0`` and ``epsilon > 0`` agree bit-for-bit on every row
that was not replaced.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError, integer, open_text, real

# each random stream's spawn key; the module docstring says what draws from it
STREAMS = {"train": (0,), "test": (1,), "train_contamination": (2, 0),
           "test_contamination": (2, 1), "gbm_split": (3,), "certification": (7,)}

_MASK64 = (1 << 64) - 1
CSV_SIG_DIGITS = 9
# most noise normals one draw holds (256 KB), so no whole-matrix temporary is made
_NOISE_BLOCK_ELEMENTS = 1 << 15


# each real GenParams field, the test its value must pass, and what its error says it must be
_REAL_FIELDS = (
    ("mu", lambda v: math.isfinite(v) and v >= 0, "be a nonnegative real"),
    ("sigma", lambda v: math.isfinite(v) and v > 0, "be positive"),
    ("sigma_noise", lambda v: math.isfinite(v) and v > 0, "be positive"),
    ("w", lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    ("epsilon", lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    ("tau_mult", lambda v: math.isfinite(v) and v > 0, "be positive"),
)


@dataclass(frozen=True)
class GenParams:
    """Configuration of one synthetic experiment cell.

    ``d`` counts the total dimensionality (1 core + ``d - 1`` noise
    coordinates).  The contamination scale is ``tau_mult * sigma_noise``.
    """

    d: int
    n_train: int
    mu: float
    seed: int
    n_test: int = 4000
    sigma: float = 0.15
    sigma_noise: float = 1.0
    w: float = 0.5
    epsilon: float = 0.0
    tau_mult: float = 10.0

    def __post_init__(self) -> None:
        for name, minimum in (("d", 1), ("n_train", 2), ("n_test", 2)):
            integer(name, getattr(self, name), minimum)
        for name, holds, need in _REAL_FIELDS:
            real(name, getattr(self, name), holds, need)
        integer("seed", self.seed, 0)

    @property
    def tau(self) -> float:
        return self.tau_mult * self.sigma_noise


@dataclass
class Dataset:
    """A labeled sample matrix with its contamination record."""

    features: np.ndarray
    labels: np.ndarray
    contaminated_mask: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def stream(name: str, seed: int) -> np.random.Generator:
    """The generator of stream ``name`` (a ``STREAMS`` key) under ``seed``, a
    nonnegative integer."""
    seed = integer("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=STREAMS[name]))


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _float_bits(v: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(v)))[0]


def cell_seed(base_seed: int, grid_seed: int, params: GenParams) -> int:
    """Order-independent 64-bit seed for one (cell, seed) work item."""
    state = _splitmix64(base_seed & _MASK64)
    for v in (
        grid_seed, params.d, params.n_train, params.n_test,
        _float_bits(params.mu), _float_bits(params.sigma),
        _float_bits(params.sigma_noise), _float_bits(params.w),
        _float_bits(params.epsilon), _float_bits(params.tau_mult),
    ):
        state = _splitmix64(state ^ (int(v) & _MASK64))
    return state


def gbm_split_seed(seed: int) -> int:
    """The boosted attacks' split seed in the sweep cell seeded ``seed``."""
    return _splitmix64(seed ^ 0xA77ACC)


def generate_dataset(params: GenParams, split: str) -> Dataset:
    """Draw one split of the synthetic task, contaminating it if requested.

    ``split`` selects the sample count (``n_train`` or ``n_test``) and the
    RNG substream; both splits use the same distribution parameters.  A
    feature matrix numpy cannot allocate raises ``DataError``.
    """
    if split not in ("train", "test"):
        raise ValidationError(f"split must be 'train' or 'test', got {split!r}")
    n = params.n_train if split == "train" else params.n_test

    try:  # before any draw: a size numpy refuses takes no randomness
        features = np.empty((n, params.d))
    except (ValueError, MemoryError) as exc:
        raise DataError(f"cannot allocate {n} x {params.d} features: {exc}") from None
    rng = stream(split, params.seed)
    labels = np.where(rng.random(n) < params.w, 1, -1).astype(np.int64)
    features[:, 0] = rng.normal(labels * params.mu, params.sigma)
    if params.d > 1:
        step = max(1, _NOISE_BLOCK_ELEMENTS // (params.d - 1))
        for start in range(0, n, step):
            block = features[start:start + step, 1:]
            block[...] = rng.normal(0.0, params.sigma_noise, size=block.shape)

    data = Dataset(
        features=features,
        labels=labels,
        contaminated_mask=np.zeros(n, dtype=bool),
    )
    if params.epsilon > 0.0:
        _contaminate(data, params.epsilon, params.tau,
                     stream(f"{split}_contamination", params.seed))
    return data


def _contaminate(data: Dataset, epsilon: float, tau: float, rng: np.random.Generator) -> None:
    """Replace each row of ``data`` with probability ``epsilon`` by a
    ``N(0, tau^2 I_d)`` draw, in place, and record the replaced rows in its mask."""
    mask = rng.random(data.n) < epsilon
    k = int(mask.sum())
    if k:
        data.features[mask] = rng.normal(0.0, tau, size=(k, data.d))
    data.contaminated_mask = mask


def write_csv(data: Dataset, path: str) -> None:
    """Write ``y,x0,...,x{d-1},contam`` rows with 9-significant-digit floats.

    Features that overflowed (a contamination scale near the float limit)
    raise ``DataError`` before the file is opened: :func:`read_csv` rejects them.
    """
    bad = int(np.count_nonzero(~np.isfinite(data.features)))
    if bad:
        raise DataError(f"{bad} features are not finite (drawn beyond the float range)")
    cols = ",".join(f"x{j}" for j in range(data.d))
    with open(path, "w", newline="\n") as fh:
        fh.write(f"y,{cols},contam\n")
        for y, row, c in zip(data.labels, data.features, data.contaminated_mask):
            vals = ",".join(format(v, f".{CSV_SIG_DIGITS}g") for v in row)
            fh.write(f"{int(y)},{vals},{int(c)}\n")


def read_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`write_csv`."""
    with open_text(path) as fh:
        header = fh.readline().strip()
        fields = header.split(",")
        if len(fields) < 3 or fields[0] != "y" or fields[-1] != "contam":
            raise ValidationError(f"unrecognized dataset header: {header!r}")
        d = len(fields) - 2
        labels, rows, mask = [], [], []
        for line_no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != d + 2:
                raise ValidationError(f"row {line_no}: expected {d + 2} fields")
            try:
                labels.append(int(parts[0]))
                features = [float(v) for v in parts[1:-1]]
                contam = int(parts[-1])
            except ValueError:
                raise ValidationError(f"row {line_no}: non-numeric field") from None
            if not all(map(math.isfinite, features)):
                raise ValidationError(f"row {line_no}: non-finite feature")
            rows.append(features)
            if contam not in (0, 1):
                raise ValidationError(f"row {line_no}: contam must be 0 or 1")
            mask.append(bool(contam))
    if not rows:
        raise ValidationError(f"dataset file {path!r} has no rows")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if not np.all(np.isin(labels_arr, (-1, 1))):
        raise ValidationError("labels must be -1 or +1")
    return Dataset(
        features=np.asarray(rows, dtype=np.float64),
        labels=labels_arr,
        contaminated_mask=np.asarray(mask, dtype=bool),
    )
