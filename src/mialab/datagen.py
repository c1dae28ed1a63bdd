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
All draws use numpy's PCG64 generator seeded through ``SeedSequence`` with
a spawn key that mixes the user seed and a stream tag:

* train data      -> ``SeedSequence(seed, spawn_key=(0,))``
* test data       -> ``SeedSequence(seed, spawn_key=(1,))``
* contamination   -> ``SeedSequence(seed, spawn_key=(2, split_tag))``

Within a stream the draw order is fixed (label uniforms, then core normals,
then noise normals), so identical ``(GenParams, split)`` produce
bit-identical datasets.  Clean draws never consume from the contamination
stream: datasets generated with the same seed at ``epsilon = 0`` and
``epsilon > 0`` agree bit-for-bit on every row that was not replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_TAG_TRAIN = 0
_TAG_TEST = 1
_TAG_CONTAM = 2

_SPLIT_TAGS = {"train": _TAG_TRAIN, "test": _TAG_TEST}

CSV_SIG_DIGITS = 9


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
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ValidationError(f"d must be a positive integer, got {self.d!r}")
        if self.n_train < 2:
            raise ValidationError(f"n_train must be >= 2, got {self.n_train!r}")
        if self.n_test < 2:
            raise ValidationError(f"n_test must be >= 2, got {self.n_test!r}")
        if not np.isfinite(self.mu) or self.mu < 0:
            raise ValidationError(f"mu must be a nonnegative real, got {self.mu!r}")
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma!r}")
        if not np.isfinite(self.sigma_noise) or self.sigma_noise <= 0:
            raise ValidationError(
                f"sigma_noise must be positive, got {self.sigma_noise!r}"
            )
        if not 0.0 < self.w < 1.0:
            raise ValidationError(f"w must lie in (0, 1), got {self.w!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1), got {self.epsilon!r}")
        if not np.isfinite(self.tau_mult) or self.tau_mult <= 0:
            raise ValidationError(f"tau_mult must be positive, got {self.tau_mult!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def tau(self) -> float:
        return self.tau_mult * self.sigma_noise


@dataclass
class Dataset:
    """A labeled sample matrix with its contamination record."""

    features: np.ndarray
    labels: np.ndarray
    contaminated_mask: np.ndarray
    params: GenParams | None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _stream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tags))


def generate_dataset(params: GenParams, split: str) -> Dataset:
    """Draw one split of the synthetic task, contaminating it if requested.

    ``split`` selects the sample count (``n_train`` or ``n_test``) and the
    RNG substream; both splits use the same distribution parameters.
    """
    if split not in _SPLIT_TAGS:
        raise ValidationError(f"split must be 'train' or 'test', got {split!r}")
    tag = _SPLIT_TAGS[split]
    n = params.n_train if split == "train" else params.n_test

    rng = _stream(params.seed, tag)
    labels = np.where(rng.random(n) < params.w, 1, -1).astype(np.int64)
    core = rng.normal(labels * params.mu, params.sigma)
    noise = rng.normal(0.0, params.sigma_noise, size=(n, params.d - 1))
    features = np.hstack([core[:, None], noise])

    data = Dataset(
        features=features,
        labels=labels,
        contaminated_mask=np.zeros(n, dtype=bool),
        params=params,
    )
    if params.epsilon > 0.0:
        contam_rng = _stream(params.seed, _TAG_CONTAM, tag)
        data = _contaminate(data, params.epsilon, params.tau, contam_rng)
    return data


def contaminate(data: Dataset, epsilon: float, tau: float, seed: int) -> Dataset:
    """Replace each row with probability ``epsilon`` by an ``N(0, tau^2 I)`` draw.

    Labels are kept unchanged; the returned ``contaminated_mask`` records
    exactly the rows replaced by this call.  Uses the contamination
    substream keyed by ``(seed, contam-tag)``.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    if not np.isfinite(tau) or tau <= 0:
        raise ValidationError(f"tau must be positive, got {tau!r}")
    return _contaminate(data, epsilon, tau, _stream(seed, _TAG_CONTAM))


def _contaminate(
    data: Dataset, epsilon: float, tau: float, rng: np.random.Generator
) -> Dataset:
    mask = rng.random(data.n) < epsilon
    features = data.features.copy()
    k = int(mask.sum())
    if k:
        features[mask] = rng.normal(0.0, tau, size=(k, data.d))
    return Dataset(
        features=features,
        labels=data.labels.copy(),
        contaminated_mask=mask,
        params=data.params,
    )


def write_csv(data: Dataset, path: str) -> None:
    """Write ``y,x0,...,x{d-1},contam`` rows with 9-significant-digit floats."""
    cols = ",".join(f"x{j}" for j in range(data.d))
    with open(path, "w", newline="\n") as fh:
        fh.write(f"y,{cols},contam\n")
        for y, row, c in zip(data.labels, data.features, data.contaminated_mask):
            vals = ",".join(format(v, f".{CSV_SIG_DIGITS}g") for v in row)
            fh.write(f"{int(y)},{vals},{int(c)}\n")


def read_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`write_csv`.  ``params`` is not recoverable."""
    with open(path) as fh:
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
                rows.append([float(v) for v in parts[1:-1]])
                contam = int(parts[-1])
            except ValueError:
                raise ValidationError(f"row {line_no}: non-numeric field") from None
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
        params=None,
    )
