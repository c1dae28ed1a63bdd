"""Experiment grid execution: cells, sweeps, and aggregation.

A *cell* is one ``GenParams`` configuration.  Running it draws matched
train/test sets, fits both classifiers, computes member scores on the
training set and nonmember scores on the test set for every requested
score kind, and reduces them to AUROC/advantage.  A *sweep* is the
deterministic Cartesian product of grid axes crossed with a list of seeds.

Each (cell, seed) work item runs under its own seed, ``datagen.cell_seed``
(``datagen``'s randomness contract says how it is mixed).  Cells are pure
and independent; a process pool may execute them in any order and the
aggregated tables come out identical.

Every sweep runs its cells on one BLAS thread per process.  The pin,
:func:`pin_blas_threads`, loads the scipy functions the cells call before it
pins every mapped OpenBLAS, so scipy's own OpenBLAS is pinned too.  It is the
pool's initializer, whatever the start method; a serial sweep pins for the
duration of the run and then restores the caller's thread counts.  On a
machine with as many workers as cores, each worker's default BLAS thread pool
would compete with the other workers for the same cores.
"""

from __future__ import annotations

import ctypes
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import lazy_scipy
from .attacks import ScoreKind, accuracy, membership_scores, model_outputs
from .datagen import GenParams, cell_seed, gbm_split_seed, generate_dataset
from .errors import MialabError, ValidationError, integer, open_text
from .linear_models import fit_lda, fit_logistic
from .metrics import CELL_COLUMNS, attack_result, mean_sem, sort_key

CONFIG_HEADER = "# mialab sweep config v1"

DEFAULT_SCORE_KINDS = (
    ScoreKind.MAX_PROB,
    ScoreKind.ENTROPY,
    ScoreKind.LOG_LOSS,
    ScoreKind.LDA_LOG_JOINT,
)

# Names of the OpenBLAS thread-count functions, ``{}`` being get or set:
# scipy's wheels rename ``openblas_`` to ``scipy_openblas_``, and ILP64
# builds (numpy's) append ``64_``.
_OPENBLAS_THREAD_FUNCS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

_GROUP_COLUMNS = (*CELL_COLUMNS, "model", "score_kind")

SUMMARY_COLUMNS = (
    *_GROUP_COLUMNS,
    "auroc_mean", "auroc_sem", "advantage_mean", "advantage_sem",
    "accuracy_mean", "accuracy_sem", "n_seeds",
)

REPORT_COLUMNS = (*_GROUP_COLUMNS, "utility", "advantage")


@dataclass(frozen=True)
class SweepGrid:
    """Axes of one sweep; the defaults reproduce the standard toy grid."""

    mu_values: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 11))
    d_values: tuple[int, ...] = (16, 64, 256)
    n_train_values: tuple[int, ...] = (50, 200, 2000)
    w_values: tuple[float, ...] = (GenParams.w,)
    epsilon_values: tuple[float, ...] = (GenParams.epsilon,)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_test: int = GenParams.n_test
    sigma: float = GenParams.sigma
    sigma_noise: float = GenParams.sigma_noise
    tau_mult: float = GenParams.tau_mult

    def __post_init__(self) -> None:
        # A repeated value would run one cell twice under the same derived seed.
        for f in fields(self):
            if isinstance(f.default, tuple):
                values = getattr(self, f.name)
                if len(values) == 0:
                    raise ValidationError(f"{f.name} must be nonempty")
                for i, v in enumerate(values):
                    if v in values[:i]:
                        raise ValidationError(f"{f.name} repeats the value {v!r}")

    def cells(self) -> list[GenParams]:
        """All (cell, seed) combinations as fully seeded parameter sets."""
        axes = (self.d_values, self.n_train_values, self.mu_values, self.w_values,
                self.epsilon_values, self.seeds)
        return [GenParams(d=d, n_train=n, mu=mu, seed=seed, n_test=self.n_test,
                          sigma=self.sigma, sigma_noise=self.sigma_noise, w=w, epsilon=eps,
                          tau_mult=self.tau_mult)
                for d, n, mu, w, eps, seed in itertools.product(*axes)]


@dataclass
class SweepTable:
    rows: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)


def attack_target(model, member, nonmember, kinds, seed: int):
    """Attack ``model``, trained on ``member``, with each of ``kinds`` from one output pass.

    Returns the accuracy on ``nonmember`` and a ``(scores, result)`` pair per kind;
    ``seed`` seeds the boosted attack's split.  A kind that does not apply to
    ``model`` raises ``ValidationError`` before anything is computed.
    """
    for kind in kinds:
        if not kind.applies_to(model):
            raise ValidationError(f"{kind.value} requires an lda model")
    outputs = model_outputs(model, member), model_outputs(model, nonmember)
    scores = [membership_scores(kind, *outputs, seed) for kind in kinds]
    return accuracy(outputs[1]), [(s, attack_result(s)) for s in scores]


def run_cell(params: GenParams, kinds=DEFAULT_SCORE_KINDS) -> list[dict]:
    """Run one configuration end to end; deterministic given ``params``.

    Returns a row per (model, score kind) with every ``RESULT_COLUMNS`` entry but
    ``seed``; a kind that does not apply to a model gives that model no row.
    """
    kinds = tuple(kinds)
    cell = {c: getattr(params, c) for c in CELL_COLUMNS}
    try:
        train = generate_dataset(params, "train")
        test = generate_dataset(params, "test")
        split_seed = gbm_split_seed(params.seed)

        rows = []
        for name, fit in (("logistic", fit_logistic), ("lda", fit_lda)):
            model = fit(train)
            acc, pairs = attack_target(model, train, test,
                                       [k for k in kinds if k.applies_to(model)], split_seed)
            rows.extend({**cell, "model": name, "score_kind": scores.kind.value,
                         "auroc": result.auroc, "advantage": result.advantage,
                         "accuracy": acc} for scores, result in pairs)
    except MialabError as exc:
        raise type(exc)(f"cell {params}: {exc}") from exc
    return rows


def _worker(item):
    _, params, kinds = item
    try:
        return run_cell(params, kinds), None
    except Exception as exc:  # a failing cell must not abort the sweep
        return None, f"{type(exc).__name__}: {exc}"


def openblas_thread_controls() -> list[tuple]:
    """``(get, set)`` thread-count functions of each OpenBLAS mapped into this process.

    Libraries are found by path in ``/proc/self/maps``.  Another BLAS, a
    library without a known setter, or a platform without ``/proc`` gives
    no controls.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                            if len(parts) == 6 and "openblas" in parts[5]})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_FUNCS:
            try:
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return controls


def pin_blas_threads() -> list[tuple]:
    """Load scipy, then run every mapped OpenBLAS on one thread (scipy maps its own only
    once it loads); return ``(set, count)`` pairs to restore."""
    lazy_scipy.load()
    previous = []
    for get, set_ in openblas_thread_controls():
        previous.append((set_, get()))
        set_(1)
    return previous


def run_sweep(
    grid: SweepGrid,
    kinds=DEFAULT_SCORE_KINDS,
    workers: int = 1,
    base_seed: int = 0,
) -> SweepTable:
    """Run every (cell, seed) of the grid; failures are recorded, not raised."""
    kinds = tuple(kinds)
    base_seed = integer("base_seed", base_seed)  # any sign: cell_seed masks it to 64 bits
    items = []
    for params in grid.cells():
        derived = replace(params, seed=cell_seed(base_seed, params.seed, params))
        items.append((params.seed, derived, kinds))

    # A fork pool starts all its workers at the first submit, so it gets no
    # more workers than cells; a single cell runs serially.
    workers = min(integer("workers", workers, 1), len(items))
    if workers == 1:
        previous = pin_blas_threads()
        try:
            results = list(map(_worker, items))
        finally:
            for set_, count in previous:
                set_(count)
    else:
        # Cells go out one at a time: the grid is d-major, so batches would
        # leave the largest cells to one worker at the end.  scipy loads before
        # the fork, so forked workers inherit it; the caller stays unpinned.
        lazy_scipy.load()
        with ProcessPoolExecutor(max_workers=workers, initializer=pin_blas_threads) as pool:
            results = list(pool.map(_worker, items))

    # Both maps yield in submission order, so rows follow the deterministic
    # cell order whatever order the cells finished in.
    table = SweepTable()
    for (grid_seed, p, _), (rows, error) in zip(items, results):
        if error is None:
            table.rows.extend({**row, "seed": grid_seed} for row in rows)
        else:
            cell = {c: getattr(p, c) for c in CELL_COLUMNS}
            table.failures.append({**cell, "seed": grid_seed, "error": error})
    return table


def summarize(rows: list[dict]) -> list[dict]:
    """Mean and SEM of result ``rows`` per (cell, model, score kind) across seeds,
    sorted on the cell columns."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row[c] for c in _GROUP_COLUMNS)
        groups.setdefault(key, []).append(row)
    out = []
    for key, rows in groups.items():
        summary = dict(zip(_GROUP_COLUMNS, key))
        for metric in ("auroc", "advantage", "accuracy"):
            mean, sem = mean_sem(np.array([r[metric] for r in rows]))
            summary[f"{metric}_mean"] = mean
            summary[f"{metric}_sem"] = sem
        summary["n_seeds"] = len(rows)
        out.append(summary)
    return sorted(out, key=lambda s: sort_key(s, _GROUP_COLUMNS))


def privacy_utility_report(rows: list[dict]) -> list[dict]:
    """Scatter-ready (utility, advantage) pairs per configuration and score."""
    out = []
    for summary in summarize(rows):
        row = {c: summary[c] for c in _GROUP_COLUMNS}
        row["utility"] = summary["accuracy_mean"]
        row["advantage"] = summary["advantage_mean"]
        out.append(row)
    return out


def parse_sweep_config(text: str) -> SweepGrid:
    """Parse the flat key-value sweep configuration format.

    The first non-blank line must be the versioned header
    ``# mialab sweep config v1``.  Keys are ``SweepGrid`` fields: a tuple default
    takes whitespace- or comma-separated values typed like its entries, any other
    default one value of its type.  Keys not present fall back to the defaults;
    a key given twice is rejected.
    """
    defaults = {f.name: f.default for f in fields(SweepGrid)}
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln]
    if not body or body[0] != CONFIG_HEADER:
        raise ValidationError(f"config must start with {CONFIG_HEADER!r}")
    values: dict = {}
    for ln in body[1:]:
        if ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValidationError(f"expected 'key = values', got {ln!r}")
        key, _, raw = ln.partition("=")
        key = key.strip()
        tokens = raw.replace(",", " ").split()
        if key not in defaults:
            raise ValidationError(f"unknown config key {key!r}")
        if key in values:
            raise ValidationError(f"config key {key!r} appears twice")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                if not tokens:
                    raise ValidationError(f"{key} needs at least one value")
                values[key] = tuple(type(default[0])(t) for t in tokens)
            else:
                if len(tokens) != 1:
                    raise ValidationError(f"{key} takes exactly one value")
                values[key] = type(default)(tokens[0])
        except ValueError as exc:
            raise ValidationError(f"bad value for {key}: {exc}") from exc
    return SweepGrid(**values)


def load_sweep_config(path: str) -> SweepGrid:
    with open_text(path) as fh:
        return parse_sweep_config(fh.read())
