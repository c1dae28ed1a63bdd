"""Acceptance gate: every shipped guarantee, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  The sweep-backed criteria 7, 8 and 11 dominate the runtime.  On two
shared cores the file took 38 s: 26 s for criterion 11, which runs the
default grid three times, and 7 s and 3.5 s for the sweeps behind criteria 8
and 7.  Every other criterion took under a second.
"""

import math
import time

import numpy as np
import pytest

from mialab.attacks import (
    AttackScores,
    ScoreKind,
    label_indices,
    run_gbm_attack,
    threshold_scores,
)
from mialab.datagen import GenParams, generate_dataset
from mialab.divergence import c_coeff, sample_dirichlet_joint
from mialab.gbm import fit_gbm
from mialab.harness import SweepGrid, run_sweep
from mialab.linear_models import fit_logistic, logistic_margins, logistic_posteriors
from mialab.metrics import auroc, write_results_csv

from _divergence_fixtures import (
    channel_tv,
    decompose,
    dominance_probe,
    log_joint_vector_channel,
    matched_normalizer_pair,
    softmax_channel,
)
from _reference_gbm import _best_split, enumerate_best_split, staged_train_deviance

TOL = 1e-12


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _rows(table, **filters):
    out = table.rows
    for key, val in filters.items():
        out = [r for r in out if r[key] == val]
    return out


def _mean(rows, field):
    return float(np.mean([r[field] for r in rows]))


@pytest.fixture(scope="module")
def toy_sweep():
    """Clean grid behind criterion 7: all d and mu, n in {50, 200}, 5 seeds."""
    grid = SweepGrid(n_train_values=(50, 200))
    start = time.perf_counter()
    table = run_sweep(grid, kinds=(ScoreKind.MAX_PROB, ScoreKind.LDA_LOG_JOINT), workers=2)
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def contaminated_sweep():
    """Default grid with Huber contamination behind criterion 8."""
    grid = SweepGrid(epsilon_values=(0.02,), tau_mult=10.0)
    return run_sweep(grid, kinds=(ScoreKind.MAX_PROB, ScoreKind.LDA_LOG_JOINT), workers=2)


def test_criterion_1_sandwich_certification():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    violations = 0
    for _ in range(1000):
        rep = decompose(*sample_dirichlet_joint(rng, 6, 4, size=2))
        if not (rep.lower <= rep.tv_joint + TOL and rep.tv_joint <= rep.upper + TOL):
            violations += 1
    elapsed = time.perf_counter() - start
    _report(
        "1 (decomposition sandwich)",
        violations == 0 and elapsed < 5.0,
        f"violations={violations}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_kl_upper_bound_chain():
    rng = np.random.default_rng(2)
    violations = 0
    finite = 0
    for _ in range(1000):
        rep = decompose(*sample_dirichlet_joint(rng, 6, 4, size=2))
        if math.isfinite(rep.kl_x) and math.isfinite(rep.exp_kl_cond):
            finite += 1
            bound = math.sqrt(rep.kl_x / 2.0) + math.sqrt(rep.exp_kl_cond / 2.0)
            if rep.tv_joint > bound + TOL:
                violations += 1
    _report(
        "2 (KL-based upper bound)",
        violations == 0 and finite == 1000,
        f"violations={violations} over {finite} finite-KL instances",
    )


def test_criterion_3_softmax_coarsening():
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(500):
        P, Q = sample_dirichlet_joint(rng, 6, 4, size=2)
        tv_vec = channel_tv(P, Q, log_joint_vector_channel(P))
        tv_soft = channel_tv(P, Q, softmax_channel(P))
        if tv_soft > tv_vec + TOL:
            violations += 1

    worst_gap = 0.0
    for _ in range(10):
        P, Q = matched_normalizer_pair(rng)
        gap = abs(channel_tv(P, Q, log_joint_vector_channel(P))
                  - channel_tv(P, Q, softmax_channel(P)))
        worst_gap = max(worst_gap, gap)
    _report(
        "3 (posterior coarsening never gains)",
        violations == 0 and worst_gap <= 1e-10,
        f"violations={violations}, matched-normalizer max |gap|={worst_gap:.2e}",
    )


def test_criterion_4_scalar_joint_dominance():
    formula_err = 0.0
    for alpha in (0.1, 0.25, 0.5, 0.7, 1.0, 1.3):
        for factor in (1.0, 1.5, 2.0, 5.0, 20.0):
            beta = alpha * factor
            expected = math.log(beta / alpha) / (1.0 + math.log(beta / alpha))
            formula_err = max(formula_err, abs(c_coeff(alpha, beta) - expected))

    rng = np.random.default_rng(4)
    held = 0
    violations = 0
    for _ in range(500):
        holds, bound, tv_scalar = dominance_probe(*sample_dirichlet_joint(rng, 6, 4, size=2))
        if holds:
            held += 1
            if tv_scalar < bound - TOL:
                violations += 1
    _report(
        "4 (scalar-joint dominance bound)",
        formula_err <= TOL and violations == 0,
        f"coefficient max err={formula_err:.1e}; "
        f"bound violations={violations} over {held} triggered instances",
    )


def test_criterion_5_auroc_oracle_equivalence():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(1000):
        n_m = int(rng.integers(1, 101))
        n_n = int(rng.integers(1, 101))
        member = rng.integers(0, 10, size=n_m) / 2.0  # tie-heavy grid
        nonmember = rng.integers(0, 10, size=n_n) / 2.0
        scores = AttackScores(
            member_scores=member.astype(float),
            nonmember_scores=nonmember.astype(float),
            kind=ScoreKind.MAX_PROB,
        )
        wins = (member[:, None] > nonmember[None, :]).sum()
        ties = (member[:, None] == nonmember[None, :]).sum()
        brute = (wins + 0.5 * ties) / (n_m * n_n)
        if auroc(scores) != brute:
            mismatches += 1
    _report("5 (AUROC == pair counting)", mismatches == 0,
            f"mismatches={mismatches} of 1000")


def test_criterion_6_null_calibration():
    values = []
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        scores = AttackScores(
            member_scores=rng.normal(size=500),
            nonmember_scores=rng.normal(size=500),
            kind=ScoreKind.MAX_PROB,
        )
        a = auroc(scores)
        values.append(a)
        worst = max(worst, abs(a - 0.5))
    mean_dev = abs(float(np.mean(values)) - 0.5)
    _report(
        "6 (null calibration)",
        worst <= 0.07 and mean_dev <= 0.02,
        f"max |auroc-0.5|={worst:.4f}, |mean-0.5|={mean_dev:.4f}",
    )


def test_criterion_7_toy_direction(toy_sweep):
    table, elapsed = toy_sweep
    checks = {}

    # (a) generative sample efficiency
    ok_a = True
    detail_a = []
    for d in (16, 64):
        lda50 = _mean(_rows(table, d=d, n_train=50, model="lda", score_kind="max_prob"),
                      "accuracy")
        lr200 = _mean(_rows(table, d=d, n_train=200, model="logistic",
                            score_kind="max_prob"), "accuracy")
        ok_a &= lda50 >= lr200
        detail_a.append(f"d={d}: {lda50:.4f} vs {lr200:.4f}")
    checks["a"] = (ok_a, "; ".join(detail_a))

    # (b) log-joint beats posterior per (d=256, n=50) cell in >= 4/5 seeds
    min_wins = 5
    for mu in [round(0.05 * k, 2) for k in range(2, 11)]:
        wins = 0
        for seed in range(5):
            lj = _rows(table, d=256, n_train=50, mu=mu, seed=seed,
                       model="lda", score_kind="lda_log_joint")[0]["advantage"]
            pr = _rows(table, d=256, n_train=50, mu=mu, seed=seed,
                       model="lda", score_kind="max_prob")[0]["advantage"]
            wins += lj >= pr
        min_wins = min(min_wins, wins)
    checks["b"] = (min_wins >= 4, f"min wins {min_wins}/5 over 9 cells")

    # (c) discriminative posterior leaks least at small separation
    lr = _mean(_rows(table, d=64, mu=0.05, model="logistic", score_kind="max_prob"),
               "advantage")
    lda = _mean(_rows(table, d=64, mu=0.05, model="lda", score_kind="max_prob"),
                "advantage")
    checks["c"] = (lr <= lda, f"LR {lr:.4f} <= LDA {lda:.4f}")

    # (d) dimensionality amplifies log-joint leakage
    hi = _mean(_rows(table, d=256, n_train=50, model="lda",
                     score_kind="lda_log_joint"), "advantage")
    lo = _mean(_rows(table, d=16, n_train=50, model="lda",
                     score_kind="lda_log_joint"), "advantage")
    checks["d"] = (hi >= lo, f"d=256 {hi:.4f} >= d=16 {lo:.4f}")

    ok = all(flag for flag, _ in checks.values()) and elapsed < 120.0
    detail = "; ".join(f"({k}) {msg}" for k, (_, msg) in checks.items())
    _report("7 (toy sweep directions)", ok, f"{detail}; runtime={elapsed:.1f}s")


def test_criterion_8_contamination_reversal(contaminated_sweep):
    table = contaminated_sweep
    lr_acc = _mean(_rows(table, model="logistic", score_kind="max_prob"), "accuracy")
    lda_acc = _mean(_rows(table, model="lda", score_kind="max_prob"), "accuracy")

    slice_rows = lambda model, kind: _rows(
        table, d=256, n_train=50, model=model, score_kind=kind)
    lj = _mean(slice_rows("lda", "lda_log_joint"), "advantage")
    lda_p = _mean(slice_rows("lda", "max_prob"), "advantage")
    lr_p = _mean(slice_rows("logistic", "max_prob"), "advantage")

    ok = lr_acc > lda_acc and lj >= lda_p and lj >= lr_p
    _report(
        "8 (contamination reversal)",
        ok,
        f"acc LR {lr_acc:.4f} > LDA {lda_acc:.4f}; slice adv: "
        f"log-joint {lj:.4f}, LDA/prob {lda_p:.4f}, LR/prob {lr_p:.4f}",
    )


def test_criterion_9_attack_hierarchy():
    gbm_vals, ll_vals, mp_vals = [], [], []
    for seed in range(5):
        params = GenParams(d=64, n_train=32, mu=0.5, seed=seed)
        train = generate_dataset(params, "train")
        test = generate_dataset(params, "test")
        target = fit_logistic(train)
        p_train = logistic_posteriors(logistic_margins(target, train.features))
        p_test = logistic_posteriors(logistic_margins(target, test.features))
        for kind, store in ((ScoreKind.LOG_LOSS, ll_vals), (ScoreKind.MAX_PROB, mp_vals)):
            scores = AttackScores(
                member_scores=threshold_scores(kind, p_train, label_indices(train.labels)),
                nonmember_scores=threshold_scores(kind, p_test, label_indices(test.labels)),
                kind=kind,
            )
            store.append(auroc(scores))
        gbm_vals.append(auroc(run_gbm_attack(target, train, test,
                                             interface="probs", split_seed=seed)))
    gbm_mean, ll_mean, mp_mean = map(lambda v: float(np.mean(v)),
                                     (gbm_vals, ll_vals, mp_vals))
    _report(
        "9 (model-based attack hierarchy)",
        gbm_mean >= ll_mean >= mp_mean,
        f"GBM-probs {gbm_mean:.4f} >= log-loss {ll_mean:.4f} >= max-prob {mp_mean:.4f}",
    )


def test_criterion_10_gbm_engine():
    rng = np.random.default_rng(10)
    non_monotone = 0
    for _ in range(20):
        n = int(rng.integers(60, 200))
        X = rng.normal(size=(n, 5))
        logits = 1.2 * X[:, 0] - 0.7 * X[:, 2]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        model = fit_gbm(X, y, n_estimators=100, max_depth=3, learning_rate=0.1)
        dev = staged_train_deviance(model, X, y)
        if not np.all(np.diff(dev) <= 1e-12):
            non_monotone += 1

    split_mismatches = 0
    compared = 0
    for _ in range(50):
        n = int(rng.integers(4, 65))
        x = np.round(rng.normal(size=n), 2)
        r = rng.normal(size=n)
        mine = _best_split(x, r)
        oracle = enumerate_best_split(x, r)
        if (mine is None) != (oracle is None):
            split_mismatches += 1
            continue
        if mine is None:
            continue
        compared += 1
        sse_mine = float(np.sum(r**2)) - mine[1]
        if mine[0] != oracle[0] or abs(sse_mine - oracle[1]) > 1e-9:
            split_mismatches += 1
    _report(
        "10 (boosting engine)",
        non_monotone == 0 and split_mismatches == 0,
        f"non-monotone runs={non_monotone}/20; "
        f"split mismatches={split_mismatches} over {compared} comparisons",
    )


def test_criterion_11_sweep_determinism(tmp_path):
    grid = SweepGrid()
    blobs = []
    for run_id, workers in enumerate((1, 1, 8)):
        table = run_sweep(grid, workers=workers)
        path = tmp_path / f"results_{run_id}_w{workers}.csv"
        write_results_csv(table.rows, str(path))
        blobs.append(path.read_bytes())
        assert not table.failures
    identical = blobs[0] == blobs[1] == blobs[2]
    _report(
        "11 (sweep determinism)",
        identical,
        f"byte-identical sorted CSVs across repeat runs and workers 1 vs 8: {identical}",
    )
