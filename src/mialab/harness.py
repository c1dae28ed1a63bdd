"""Experiment grid execution: cells, sweeps, and aggregation.

A *cell* is one ``GenParams`` configuration.  Running it draws matched
train/test sets, fits both classifiers, computes member scores on the
training set and nonmember scores on the test set for every requested
score kind, and reduces them to AUROC/advantage.  A *sweep* is the
deterministic Cartesian product of grid axes crossed with a list of seeds.

Per-cell seeds are derived by a splitmix-style 64-bit mix of the base
seed, the grid seed entry, and the bits of every cell parameter, so
results never depend on enumeration or scheduling order.  Cells are pure
and independent; a process pool may execute them in any order and the
aggregated tables come out identical.

Every sweep runs its cells on one BLAS thread per process.  Pool workers
pin OpenBLAS in their initializer; a serial sweep pins for the duration of
the run and then restores the caller's thread counts.  On a machine with as
many workers as cores, each worker's default BLAS thread pool would compete
with the other workers for the same cores.
"""

from __future__ import annotations

import ctypes
import os
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import (
    AttackScores,
    ScoreKind,
    label_indices,
    run_gbm_attack,
    threshold_scores,
)
from .datagen import GenParams, generate_dataset
from .errors import MialabError, ValidationError
from .linear_models import (
    fit_lda,
    fit_logistic,
    lda_log_joints,
    logistic_posteriors,
    softmax_pairs,
)
from .metrics import AttackResult, attack_result, mean_sem, sort_key

WORKERS_ENV_VAR = "MIALAB_WORKERS"
CONFIG_HEADER = "# mialab sweep config v1"

DEFAULT_SCORE_KINDS = (
    ScoreKind.MAX_PROB,
    ScoreKind.ENTROPY,
    ScoreKind.LOG_LOSS,
    ScoreKind.LDA_LOG_JOINT,
)

MODELS = ("logistic", "lda")

_MASK64 = (1 << 64) - 1

# Names of the OpenBLAS thread-count functions, ``{}`` being get or set:
# scipy's wheels rename ``openblas_`` to ``scipy_openblas_``, and ILP64
# builds (numpy's) append ``64_``.
_OPENBLAS_THREAD_FUNCS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

SUMMARY_COLUMNS = (
    "d", "n_train", "mu", "sigma", "sigma_noise", "w", "epsilon",
    "model", "score_kind",
    "auroc_mean", "auroc_sem", "advantage_mean", "advantage_sem",
    "accuracy_mean", "accuracy_sem", "n_seeds",
)

REPORT_COLUMNS = (
    "d", "n_train", "mu", "sigma", "sigma_noise", "w", "epsilon",
    "model", "score_kind", "utility", "advantage",
)


@dataclass(frozen=True)
class SweepGrid:
    """Axes of one sweep; the defaults reproduce the standard toy grid."""

    mu_values: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 11))
    d_values: tuple[int, ...] = (16, 64, 256)
    n_train_values: tuple[int, ...] = (50, 200, 2000)
    w_values: tuple[float, ...] = (0.5,)
    epsilon_values: tuple[float, ...] = (0.0,)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_test: int = 4000
    sigma: float = 0.15
    sigma_noise: float = 1.0
    tau_mult: float = 10.0

    def __post_init__(self) -> None:
        for name in ("mu_values", "d_values", "n_train_values", "w_values",
                     "epsilon_values", "seeds"):
            if len(getattr(self, name)) == 0:
                raise ValidationError(f"{name} must be nonempty")

    def cells(self) -> list[GenParams]:
        """All (cell, seed) combinations as fully seeded parameter sets."""
        out = []
        for d in self.d_values:
            for n in self.n_train_values:
                for mu in self.mu_values:
                    for w in self.w_values:
                        for eps in self.epsilon_values:
                            for seed in self.seeds:
                                out.append(GenParams(
                                    d=d, n_train=n, mu=mu, seed=seed,
                                    n_test=self.n_test, sigma=self.sigma,
                                    sigma_noise=self.sigma_noise, w=w,
                                    epsilon=eps, tau_mult=self.tau_mult,
                                ))
        return out


@dataclass
class CellResult:
    params: GenParams
    accuracies: dict[str, float]
    attacks: dict[tuple[str, ScoreKind], AttackResult]
    wall_time: float


@dataclass
class SweepTable:
    rows: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)


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


def _applicable(model_name: str, kind: ScoreKind) -> bool:
    if kind is ScoreKind.LDA_LOG_JOINT:
        return model_name == "lda"
    return True


def _threshold_attack(kind, member_scores, nonmember_scores) -> AttackScores:
    return AttackScores(
        member_scores=np.asarray(member_scores, dtype=np.float64),
        nonmember_scores=np.asarray(nonmember_scores, dtype=np.float64),
        kind=kind,
        orientation=kind.orientation,
    )


def run_cell(params: GenParams, kinds=DEFAULT_SCORE_KINDS) -> CellResult:
    """Run one configuration end to end; deterministic given ``params``."""
    start = time.perf_counter()
    kinds = tuple(kinds)
    try:
        train = generate_dataset(params, "train")
        test = generate_dataset(params, "test")

        models = {"logistic": fit_logistic(train), "lda": fit_lda(train)}

        # Model outputs are computed once per dataset and reused by every
        # score kind; LDA posteriors are the softmax of its log-joints.
        lj_train = lda_log_joints(models["lda"], train.features)
        lj_test = lda_log_joints(models["lda"], test.features)
        posterior_sets = {
            "logistic": (
                logistic_posteriors(models["logistic"], train.features),
                logistic_posteriors(models["logistic"], test.features),
            ),
            "lda": (softmax_pairs(lj_train), softmax_pairs(lj_test)),
        }
        accuracies = {
            name: float(np.mean(np.where(p[:, 1] >= p[:, 0], 1, -1) == test.labels))
            for name, (_, p) in posterior_sets.items()
        }
        train_idx = label_indices(train.labels)
        test_idx = label_indices(test.labels)

        attacks: dict[tuple[str, ScoreKind], AttackResult] = {}
        for name in MODELS:
            p_train, p_test = posterior_sets[name]
            for kind in kinds:
                if not _applicable(name, kind):
                    continue
                if kind in (ScoreKind.MAX_PROB, ScoreKind.ENTROPY, ScoreKind.LOG_LOSS):
                    scores = _threshold_attack(
                        kind,
                        threshold_scores(kind, p_train, train_idx),
                        threshold_scores(kind, p_test, test_idx),
                    )
                elif kind is ScoreKind.LDA_LOG_JOINT:
                    scores = _threshold_attack(
                        kind, lj_train.max(axis=1), lj_test.max(axis=1)
                    )
                elif kind in (ScoreKind.GBM_PROBS, ScoreKind.GBM_LOGITS):
                    interface = "probs" if kind is ScoreKind.GBM_PROBS else "logits"
                    scores = run_gbm_attack(
                        models[name], train, test,
                        interface=interface,
                        split_seed=_splitmix64(params.seed ^ 0xA77ACC),
                    )
                else:  # pragma: no cover - enum is exhaustive
                    raise ValidationError(f"unsupported score kind {kind!r}")
                attacks[(name, kind)] = attack_result(scores, cell=params)
    except MialabError as exc:
        raise type(exc)(f"cell {params}: {exc}") from exc

    return CellResult(
        params=params,
        accuracies=accuracies,
        attacks=attacks,
        wall_time=time.perf_counter() - start,
    )


def _worker(item):
    _, params, kinds = item
    try:
        return run_cell(params, kinds), None
    except Exception as exc:  # a failing cell must not abort the sweep
        return None, f"{type(exc).__name__}: {exc}"


def _result_rows(grid_seed: int, result: CellResult) -> list[dict]:
    p = result.params
    rows = []
    for (model_name, kind), att in result.attacks.items():
        rows.append({
            "d": p.d, "n_train": p.n_train, "mu": p.mu, "sigma": p.sigma,
            "sigma_noise": p.sigma_noise, "w": p.w, "epsilon": p.epsilon,
            "seed": grid_seed, "model": model_name, "score_kind": kind.value,
            "auroc": att.auroc, "advantage": att.advantage,
            "accuracy": result.accuracies[model_name],
        })
    return rows


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
    """Run every mapped OpenBLAS on one thread; return ``(set, count)`` pairs to restore."""
    previous = []
    for get, set_ in openblas_thread_controls():
        previous.append((set_, get()))
        set_(1)
    return previous


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV_VAR, "1"))
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    return workers


def run_sweep(
    grid: SweepGrid,
    kinds=DEFAULT_SCORE_KINDS,
    workers: int | None = None,
    base_seed: int = 0,
) -> SweepTable:
    """Run every (cell, seed) of the grid; failures are recorded, not raised."""
    kinds = tuple(kinds)
    items = []
    for params in grid.cells():
        derived = replace(params, seed=cell_seed(base_seed, params.seed, params))
        items.append((params.seed, derived, kinds))

    workers = resolve_workers(workers)
    if workers == 1:
        previous = pin_blas_threads()
        try:
            results = list(map(_worker, items))
        finally:
            for set_, count in previous:
                set_(count)
    else:
        # Workers are forked, so they inherit the parent's mapped libraries.
        with ProcessPoolExecutor(max_workers=workers, initializer=pin_blas_threads) as pool:
            results = list(pool.map(_worker, items, chunksize=8))

    # Both maps yield in submission order, so rows follow the deterministic
    # cell order whatever order the cells finished in.
    table = SweepTable()
    for (grid_seed, p, _), (result, error) in zip(items, results):
        if error is None:
            table.rows.extend(_result_rows(grid_seed, result))
        else:
            table.failures.append({
                "d": p.d, "n_train": p.n_train, "mu": p.mu, "w": p.w,
                "epsilon": p.epsilon, "seed": grid_seed, "error": error,
            })
    return table


def summarize(table: SweepTable) -> list[dict]:
    """Mean and SEM per (cell, model, score kind) across seeds, sorted on the cell columns."""
    groups: dict[tuple, list[dict]] = {}
    for row in table.rows:
        key = tuple(row[c] for c in SUMMARY_COLUMNS[:9])
        groups.setdefault(key, []).append(row)
    out = []
    for key, rows in groups.items():
        summary = dict(zip(SUMMARY_COLUMNS[:9], key))
        for metric in ("auroc", "advantage", "accuracy"):
            mean, sem = mean_sem(np.array([r[metric] for r in rows]))
            summary[f"{metric}_mean"] = mean
            summary[f"{metric}_sem"] = sem
        summary["n_seeds"] = len(rows)
        out.append(summary)
    return sorted(out, key=lambda s: sort_key(s, SUMMARY_COLUMNS[:9]))


def privacy_utility_report(table: SweepTable) -> list[dict]:
    """Scatter-ready (utility, advantage) pairs per configuration and score."""
    out = []
    for summary in summarize(table):
        row = {c: summary[c] for c in REPORT_COLUMNS[:9]}
        row["utility"] = summary["accuracy_mean"]
        row["advantage"] = summary["advantage_mean"]
        out.append(row)
    return out


_LIST_KEYS = {
    "mu_values": float,
    "d_values": int,
    "n_train_values": int,
    "w_values": float,
    "epsilon_values": float,
    "seeds": int,
}
_SCALAR_KEYS = {"n_test": int, "sigma": float, "sigma_noise": float, "tau_mult": float}


def parse_sweep_config(text: str) -> SweepGrid:
    """Parse the flat key-value sweep configuration format.

    The first non-blank line must be the versioned header
    ``# mialab sweep config v1``.  List values are whitespace- or
    comma-separated; keys not present fall back to the grid defaults.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln]
    if not body or body[0] != CONFIG_HEADER:
        raise ValidationError(f"config must start with {CONFIG_HEADER!r}")
    fields: dict = {}
    for ln in body[1:]:
        if ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValidationError(f"expected 'key = values', got {ln!r}")
        key, _, raw = ln.partition("=")
        key = key.strip()
        tokens = raw.replace(",", " ").split()
        try:
            if key in _LIST_KEYS:
                if not tokens:
                    raise ValidationError(f"{key} needs at least one value")
                fields[key] = tuple(_LIST_KEYS[key](t) for t in tokens)
            elif key in _SCALAR_KEYS:
                if len(tokens) != 1:
                    raise ValidationError(f"{key} takes exactly one value")
                fields[key] = _SCALAR_KEYS[key](tokens[0])
            else:
                raise ValidationError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ValidationError(f"bad value for {key}: {exc}") from exc
    return SweepGrid(**fields)


def load_sweep_config(path: str) -> SweepGrid:
    with open(path) as fh:
        return parse_sweep_config(fh.read())
