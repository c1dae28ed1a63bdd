"""The benchmark's workloads, each driven through mialab's public API.

A workload is set up once from the seed (inputs drawn, config written,
target models fitted) and then repeated.  One repetition returns its wall
time, the items it completed, one latency per timed public call, a digest
of its outputs, its failures and any failed correctness check.  Outputs are
deterministic, so every repetition of one seed must give the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import struct
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from mialab import attacks, cli, datagen, divergence, linear_models, metrics
from mialab.errors import MialabError

MU_VALUES = tuple(f"{0.05 * k:.2f}" for k in range(1, 11))
SWEEP_SCORES = ("max_prob", "lda_log_joint")
SWEEP_WORKERS = 2
# Rows per cell for SWEEP_SCORES: max_prob for both models, lda_log_joint for LDA.
ROWS_PER_CELL = 3


@dataclass
class Rep:
    wall_s: float
    items: int
    latencies_ms: list[float]
    digest: str
    failed: int = 0
    errors: list[str] = field(default_factory=list)


class SweepWorkload:
    """One ``mialab sweep`` call over a generated grid, as a user runs it."""

    item, call = "cells", "sweep"
    workers = SWEEP_WORKERS

    def __init__(self, d_values, n_train_values, mu_values, epsilon: float):
        self.axes = (d_values, n_train_values, mu_values, epsilon)
        self.cells = len(d_values) * len(n_train_values) * len(mu_values)

    def setup(self, seed: int, workdir: Path) -> None:
        d_values, n_train_values, mu_values, epsilon = self.axes
        config = workdir / "sweep.cfg"
        config.write_text(
            "# mialab sweep config v1\n"
            f"mu_values = {' '.join(mu_values)}\n"
            f"d_values = {' '.join(map(str, d_values))}\n"
            f"n_train_values = {' '.join(map(str, n_train_values))}\n"
            f"epsilon_values = {epsilon}\n"
            f"seeds = {seed}\n"
        )
        self.results = workdir / "results.csv"
        self.argv = [
            "sweep", "--config", str(config), "--scores", *SWEEP_SCORES,
            "--seed", str(seed), "--out", str(self.results),
            "--summary-out", str(workdir / "summary.csv"),
        ]

    def rep(self, workers: int) -> Rep:
        self.results.unlink(missing_ok=True)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            code = cli.main([*self.argv, "--workers", str(workers)])
            wall = time.perf_counter() - start
        data = self.results.read_bytes() if self.results.exists() else b""
        failed, errors = check_results(data, self.cells)
        if code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):
            errors.append(f"mialab sweep exited {code}: {log.getvalue().strip()[-500:]}")
        elif (code == cli.EXIT_PARTIAL) != (failed > 0):
            errors.append(f"exit code {code} disagrees with {failed} missing cells")
        return Rep(wall, self.cells, [wall * 1e3], hashlib.sha256(data).hexdigest(),
                   failed, errors)


def check_results(data: bytes, cells: int) -> tuple[int, list[str]]:
    """Missing cells and format errors of one sorted results CSV."""
    lines = data.decode().splitlines()
    errors = []
    if not lines or lines[0] != ",".join(metrics.RESULT_COLUMNS):
        return cells, ["results CSV header is wrong"]
    seen: dict[tuple, int] = {}
    for line in lines[1:]:
        f = line.split(",")
        auroc, adv, acc = float(f[10]), float(f[11]), float(f[12])
        if not (0.0 <= auroc <= 1.0 and 0.0 <= acc <= 1.0
                and abs(adv - max(auroc, 1.0 - auroc)) <= 2e-6):
            errors.append(f"implausible result row: {line}")
        key = tuple(f[:8])
        seen[key] = seen.get(key, 0) + 1
    if any(n != ROWS_PER_CELL for n in seen.values()):
        errors.append(f"a cell lacks one of its {ROWS_PER_CELL} result rows")
    if len(seen) > cells:
        errors.append(f"{len(seen)} cells in results, grid has {cells}")
    return max(cells - len(seen), 0), errors


class GbmAttackWorkload:
    """``run_gbm_attack`` per (cell, target, interface), as ``mialab attack`` does."""

    item, call = "attacks", "attack"
    workers = 1
    # Four n = 50 cells per n = 2000 cell put the median attack among the
    # small ones and the 90th percentile among the large ones, away from the
    # gap between the two sizes.
    CELL_SIZES = (50, 50, 50, 50, 2000)

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.targets = []
        for n_train in self.CELL_SIZES:
            params = datagen.GenParams(d=16, n_train=n_train, mu=float(rng.choice(MU_VALUES)),
                                       seed=int(rng.integers(2**31)))
            train = datagen.generate_dataset(params, "train")
            test = datagen.generate_dataset(params, "test")
            for model in (linear_models.fit_logistic(train), linear_models.fit_lda(train)):
                for interface in ("probs", "logits"):
                    self.targets.append((model, train, test, interface))

    def rep(self, workers: int) -> Rep:
        digest = hashlib.sha256()
        latencies, failed, errors = [], 0, []
        start = time.perf_counter()
        for model, member, nonmember, interface in self.targets:
            t0 = time.perf_counter()
            try:
                scores = attacks.run_gbm_attack(model, member, nonmember,
                                                interface=interface, split_seed=self.seed)
            except MialabError as exc:
                scores = None
                failed += 1
                errors.append(f"attack failed: {exc}")
            latencies.append((time.perf_counter() - t0) * 1e3)
            if scores is None:
                continue
            expected = member.n - member.n // 2
            for side in (scores.member_scores, scores.nonmember_scores):
                if side.shape != (expected,) or not np.all((side > 0.0) & (side < 1.0)):
                    errors.append(f"attack scores have shape {side.shape} or leave (0, 1)")
                digest.update(side.tobytes())
        wall = time.perf_counter() - start
        return Rep(wall, len(self.targets), latencies, digest.hexdigest(), failed, errors)


class BoundsWorkload:
    """``certify_bounds`` at the ``mialab bounds`` default table shape."""

    item, call = "trials", "certify"
    workers = 1
    X_SIZE, Y_SIZE = 6, 4
    TRIALS_PER_CALL = 20
    CALLS_PER_REP = 10

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.call_seeds = [int(s) for s in rng.integers(2**31, size=self.CALLS_PER_REP)]

    def rep(self, workers: int) -> Rep:
        digest = hashlib.sha256()
        latencies, failed, errors = [], 0, []
        start = time.perf_counter()
        for call_seed in self.call_seeds:
            t0 = time.perf_counter()
            reports, violations = divergence.certify_bounds(
                self.TRIALS_PER_CALL, self.X_SIZE, self.Y_SIZE, seed=call_seed)
            latencies.append((time.perf_counter() - t0) * 1e3)
            failed += violations
            if len(reports) != self.TRIALS_PER_CALL:
                errors.append(f"{len(reports)} reports for {self.TRIALS_PER_CALL} trials")
            for report in reports:
                digest.update(struct.pack("<8d", *astuple(report)))
        wall = time.perf_counter() - start
        items = self.TRIALS_PER_CALL * self.CALLS_PER_REP
        if failed:
            errors.append(f"{failed} trials violate a certified bound")
        return Rep(wall, items, latencies, digest.hexdigest(), failed, errors)


WORKLOADS = {
    "toy_sweep": lambda: SweepWorkload((16, 64, 256), (50, 200), MU_VALUES, 0.0),
    "gbm_attack": GbmAttackWorkload,
    "bounds_certify": BoundsWorkload,
}
