from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings

from mialab.attacks import ScoreKind, run_gbm_attack
from mialab.datagen import GenParams, cell_seed, generate_dataset
from mialab.errors import MialabError, ValidationError
from mialab import harness
from mialab.harness import (
    DEFAULT_SCORE_KINDS,
    REPORT_COLUMNS,
    SUMMARY_COLUMNS,
    SweepGrid,
    load_sweep_config,
    parse_sweep_config,
    privacy_utility_report,
    run_cell,
    run_sweep,
    summarize,
)
from mialab.linear_models import fit_lda, fit_logistic
from mialab.metrics import CELL_COLUMNS, RESULT_COLUMNS, auroc, write_results_csv, write_table

from _payloads import config_payloads

SMALL_GRID = SweepGrid(
    mu_values=(0.1, 0.4),
    d_values=(4,),
    n_train_values=(40,),
    n_test=400,
    seeds=(0, 1),
)


def _rows_key(table):
    return sorted(tuple(sorted(r.items())) for r in table.rows)


def _attacks(rows):
    """``run_cell`` rows keyed by (model, score kind)."""
    return {(r["model"], ScoreKind(r["score_kind"])): r for r in rows}


def _openblas_threads():
    return [get() for get, _ in harness.openblas_thread_controls()]


needs_openblas = pytest.mark.skipif(
    not harness.openblas_thread_controls(), reason="no OpenBLAS library is mapped")


def test_run_cell_no_signal_cell_is_null():
    # mu=0 removes the class signal; with n/d large the fitted models barely
    # depend on any single sample, so the attack is null too.  (At small n/d
    # the mu=0 attack is NOT null: memorization alone leaks membership.)
    params = GenParams(d=4, n_train=1000, mu=0.0, seed=0)
    rows = run_cell(params)
    for row in rows:
        assert abs(row["accuracy"] - 0.5) <= 0.03
        assert abs(row["advantage"] - 0.5) <= 0.07


def test_null_calibration_at_scale_well_conditioned():
    # across no-signal cells in the generalizing regime the advantage
    # distribution sits near chance on average
    advantages = []
    for d, n in ((16, 200), (16, 2000), (64, 2000)):
        for seed in range(3):
            rows = run_cell(GenParams(d=d, n_train=n, mu=0.0, seed=seed))
            advantages.extend(row["advantage"] for row in rows)
    assert np.mean(advantages) <= 0.55


def test_run_cell_is_deterministic_and_complete():
    params = GenParams(d=6, n_train=60, mu=0.3, seed=3)
    a = _attacks(run_cell(params))
    b = _attacks(run_cell(params))
    assert {m: r["accuracy"] for (m, _), r in a.items()} == \
        {m: r["accuracy"] for (m, _), r in b.items()}
    assert set(a) == set(b)
    for key, row in a.items():
        assert row["auroc"] == b[key]["auroc"]
        assert row["advantage"] == max(row["auroc"], 1 - row["auroc"])
    assert ("logistic", ScoreKind.LDA_LOG_JOINT) not in a
    assert ("lda", ScoreKind.LDA_LOG_JOINT) in a
    kinds = {k for (_, k) in a}
    assert kinds == set(DEFAULT_SCORE_KINDS)


def test_run_cell_gbm_kinds(monkeypatch):
    sizes = []
    real_attack_result = harness.attack_result

    def attack_result(scores):
        sizes.append((scores.member_scores.size, scores.nonmember_scores.size))
        return real_attack_result(scores)

    monkeypatch.setattr(harness, "attack_result", attack_result)
    params = GenParams(d=4, n_train=60, n_test=200, mu=0.3, seed=5)
    rows = run_cell(params, kinds=(ScoreKind.GBM_PROBS, ScoreKind.GBM_LOGITS))
    assert set(_attacks(rows)) == {
        ("logistic", ScoreKind.GBM_PROBS),
        ("logistic", ScoreKind.GBM_LOGITS),
        ("lda", ScoreKind.GBM_PROBS),
        ("lda", ScoreKind.GBM_LOGITS),
    }
    # each side scores the eval half of its pool, downsampled to n_train = 60
    assert sizes == [(30, 30)] * 4


def _reference_splitmix64(z):
    """The splitmix64 output for state ``z``, written out from its published constants."""
    mask = (1 << 64) - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_run_cell_seeds_the_boosted_split_with_the_salted_cell_seed():
    # splitmix64's first output from state 0
    assert _reference_splitmix64(0) == 0xE220A8397B1DCDAF
    params = GenParams(d=4, n_train=60, n_test=200, mu=0.3, seed=5)
    rows = run_cell(params, kinds=(ScoreKind.GBM_PROBS,))
    train, test = generate_dataset(params, "train"), generate_dataset(params, "test")
    split_seed = _reference_splitmix64(params.seed ^ 0xA77ACC)
    for row in rows:
        fit = {"logistic": fit_logistic, "lda": fit_lda}[row["model"]]
        scores = run_gbm_attack(fit(train), train, test, interface="probs", split_seed=split_seed)
        assert row["auroc"] == auroc(scores)
    assert len(rows) == 2


def test_run_cell_computes_lda_outputs_once_per_dataset(lda_log_joints_calls):
    # every score kind, the boosted ones included, reads the shared outputs
    params = GenParams(d=4, n_train=60, n_test=200, mu=0.3, seed=5)
    rows = run_cell(params, kinds=tuple(ScoreKind))
    assert lda_log_joints_calls == [60, 200]
    assert len(_attacks(rows)) == 2 * len(ScoreKind) - 1  # no lda_log_joint on logistic


def test_attack_target_rejects_a_kind_before_computing_outputs(monkeypatch):
    params = GenParams(d=4, n_train=60, n_test=200, mu=0.3, seed=5)
    train, test = generate_dataset(params, "train"), generate_dataset(params, "test")
    sizes = []
    real = harness.model_outputs
    monkeypatch.setattr(harness, "model_outputs",
                        lambda model, data: sizes.append(data.n) or real(model, data))
    kinds = (ScoreKind.MAX_PROB, ScoreKind.GBM_PROBS, ScoreKind.LDA_LOG_JOINT)
    with pytest.raises(ValidationError, match="lda_log_joint requires an lda model"):
        harness.attack_target(fit_logistic(train), train, test, kinds, seed=0)
    assert sizes == []
    acc, pairs = harness.attack_target(fit_lda(train), train, test, kinds, seed=0)
    assert sizes == [60, 200]
    assert [scores.kind for scores, _ in pairs] == list(kinds)
    assert all(result.auroc == auroc(scores) for scores, result in pairs)
    assert 0.5 < acc <= 1.0


def test_run_cell_attaches_cell_context_to_errors():
    params = GenParams(d=2, n_train=2, mu=0.1, seed=1)  # 2 samples: LDA must fail
    with pytest.raises(MialabError) as err:
        run_cell(params)
    assert "cell" in str(err.value)


def test_cell_seed_no_collisions_on_default_grid():
    grid = SweepGrid()
    seeds = {cell_seed(0, p.seed, p) for p in grid.cells()}
    assert len(seeds) == len(grid.cells()) == 450


def test_cells_nest_d_n_train_mu_w_epsilon_seed_outermost_first():
    # the sweep reports failed cells in this order, so it is part of the CLI output
    grid = SweepGrid(mu_values=(0.3, 0.1), d_values=(4, 2), n_train_values=(40, 10),
                     w_values=(0.5, 0.3), epsilon_values=(0.0, 0.1), seeds=(1, 0),
                     n_test=50, sigma=0.2, sigma_noise=0.5, tau_mult=3.0)
    want = []
    for d in grid.d_values:
        for n in grid.n_train_values:
            for mu in grid.mu_values:
                for w in grid.w_values:
                    for eps in grid.epsilon_values:
                        for seed in grid.seeds:
                            want.append(GenParams(d=d, n_train=n, mu=mu, seed=seed, n_test=50,
                                                  sigma=0.2, sigma_noise=0.5, w=w,
                                                  epsilon=eps, tau_mult=3.0))
    assert grid.cells() == want


def test_cell_seed_sensitive_to_every_axis():
    base = GenParams(d=4, n_train=40, mu=0.1, seed=0)
    s0 = cell_seed(0, 0, base)
    assert cell_seed(1, 0, base) != s0
    assert cell_seed(0, 1, base) != s0
    assert cell_seed(0, 0, GenParams(d=8, n_train=40, mu=0.1, seed=0)) != s0
    assert cell_seed(0, 0, GenParams(d=4, n_train=40, mu=0.2, seed=0)) != s0
    for change in (dict(n_train=41), dict(n_test=4001), dict(sigma=0.2),
                   dict(sigma_noise=1.5), dict(w=0.4), dict(epsilon=0.05),
                   dict(tau_mult=5.0)):
        cell = GenParams(**dict(dict(d=4, n_train=40, mu=0.1, seed=0), **change))
        assert cell_seed(0, 0, cell) != s0, change


def test_run_sweep_single_cell_sem_zero():
    grid = SweepGrid(mu_values=(0.2,), d_values=(4,), n_train_values=(40,),
                     n_test=200, seeds=(7,))
    table = run_sweep(grid, kinds=(ScoreKind.MAX_PROB,))
    assert len(table.rows) == 2  # one per model
    summaries = summarize(table.rows)
    assert all(s["auroc_sem"] == 0.0 for s in summaries)
    assert all(s["n_seeds"] == 1 for s in summaries)


def test_run_sweep_order_independent(tmp_path):
    shuffled = SweepGrid(
        mu_values=tuple(reversed(SMALL_GRID.mu_values)),
        d_values=SMALL_GRID.d_values,
        n_train_values=SMALL_GRID.n_train_values,
        n_test=SMALL_GRID.n_test,
        seeds=tuple(reversed(SMALL_GRID.seeds)),
    )
    a = run_sweep(SMALL_GRID, kinds=(ScoreKind.MAX_PROB, ScoreKind.ENTROPY))
    b = run_sweep(shuffled, kinds=(ScoreKind.MAX_PROB, ScoreKind.ENTROPY))
    assert _rows_key(a) == _rows_key(b)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(a.rows, str(pa))
    write_results_csv(b.rows, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_run_sweep_worker_count_invariant():
    a = run_sweep(SMALL_GRID, kinds=(ScoreKind.MAX_PROB,), workers=1)
    b = run_sweep(SMALL_GRID, kinds=(ScoreKind.MAX_PROB,), workers=2)
    assert _rows_key(a) == _rows_key(b)


def test_sweep_pool_never_outnumbers_cells(monkeypatch):
    pools = []

    class RecordingPool:
        """Records the pool size asked for and runs the cells in this process."""

        def __init__(self, max_workers, initializer):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    table = run_sweep(SMALL_GRID, kinds=(ScoreKind.MAX_PROB,), workers=64)
    assert pools == [4]  # SMALL_GRID has 4 cells
    assert len(table.rows) == 8
    one_cell = SweepGrid(mu_values=(0.2,), d_values=(4,), n_train_values=(40,),
                         n_test=200, seeds=(7,))
    assert len(run_sweep(one_cell, kinds=(ScoreKind.MAX_PROB,), workers=8).rows) == 2
    assert pools == [4]  # one cell runs serially


@needs_openblas
def test_sweep_pool_workers_run_one_blas_thread(monkeypatch):
    # Pool workers are forked, so they see this stand-in for run_cell; it
    # reports the worker's thread counts as the cell's failure message.
    def report_threads(params, kinds):
        raise RuntimeError(f"threads {_openblas_threads()}")

    monkeypatch.setattr(harness, "run_cell", report_threads)
    table = run_sweep(SMALL_GRID, kinds=(ScoreKind.MAX_PROB,), workers=2)
    ones = [1] * len(harness.openblas_thread_controls())
    assert [f["error"] for f in table.failures] == [f"RuntimeError: threads {ones}"] * 4


@needs_openblas
def test_serial_sweep_pins_blas_and_restores_callers_threads(monkeypatch):
    seen = []
    real_run_cell = harness.run_cell

    def run_cell(params, kinds):
        seen.append(_openblas_threads())
        return real_run_cell(params, kinds)

    monkeypatch.setattr(harness, "run_cell", run_cell)
    controls = harness.openblas_thread_controls()
    original = _openblas_threads()
    for _, set_threads in controls:
        set_threads(2)
    try:
        run_sweep(SMALL_GRID, kinds=(ScoreKind.MAX_PROB,), workers=1)
        assert _openblas_threads() == [2] * len(controls)
    finally:
        for (_, set_threads), count in zip(controls, original):
            set_threads(count)
    assert seen == [[1] * len(controls)] * 4


@needs_openblas
def test_results_csv_independent_of_blas_threads_and_workers(tmp_path, monkeypatch):
    # At d = 256 and n_test = 4000 the LDA covariance and the triangular
    # solves are large enough for OpenBLAS to split them across threads.
    grid = SweepGrid(mu_values=(0.1, 0.3), d_values=(256,), n_train_values=(50, 2000),
                     seeds=(0,))
    pinned_serial = run_sweep(grid, workers=1)
    pinned_pool = run_sweep(grid, workers=2)
    monkeypatch.setattr(harness, "pin_blas_threads", lambda: [])
    default_serial = run_sweep(grid, workers=1)
    outputs = []
    for name, table in (("pinned_serial", pinned_serial), ("pinned_pool", pinned_pool),
                        ("default_serial", default_serial)):
        assert not table.failures
        write_results_csv(table.rows, str(tmp_path / f"{name}.csv"))
        outputs.append((tmp_path / f"{name}.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_sweep_records_failures_and_continues():
    # w near 0 at tiny n: some seeds give a single-class sample
    grid = SweepGrid(mu_values=(0.1,), d_values=(2,), n_train_values=(4,),
                     w_values=(0.01,), n_test=50, seeds=tuple(range(8)))
    table = run_sweep(grid, kinds=(ScoreKind.MAX_PROB,))
    assert len(table.failures) >= 1
    assert len(table.rows) + 2 * len(table.failures) == 2 * 8
    assert all("error" in f for f in table.failures)


def test_run_sweep_isolates_unexpected_cell_errors(monkeypatch):
    real_fit_lda = harness.fit_lda

    def fit_lda(data):
        if data.d == 8:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real_fit_lda(data)

    monkeypatch.setattr(harness, "fit_lda", fit_lda)
    grid = SweepGrid(mu_values=(0.3,), d_values=(4, 8), n_train_values=(40,),
                     n_test=100, seeds=(0,))
    table = run_sweep(grid, kinds=(ScoreKind.MAX_PROB,), workers=1)
    assert {r["d"] for r in table.rows} == {4}
    assert len(table.rows) == 2  # one per model
    assert len(table.failures) == 1
    assert table.failures[0]["d"] == 8
    assert table.failures[0]["error"].startswith("LinAlgError: ")


def test_summary_and_report_shapes(tmp_path):
    table = run_sweep(SMALL_GRID, kinds=(ScoreKind.MAX_PROB, ScoreKind.LDA_LOG_JOINT))
    # rows: 2 cells x 2 seeds x (logistic max_prob + lda max_prob + lda log-joint)
    assert len(table.rows) == 2 * 2 * 3
    summaries = summarize(table.rows)
    assert len(summaries) == 2 * 3
    report = privacy_utility_report(table.rows)
    assert len(report) == len(summaries)
    assert all(set(("utility", "advantage")) <= set(r) for r in report)

    write_table(str(tmp_path / "summary.csv"), SUMMARY_COLUMNS, summaries)
    write_table(str(tmp_path / "report.csv"), REPORT_COLUMNS, report)
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header.startswith("d,n_train,mu,") and "auroc_mean" in header
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header.endswith("utility,advantage")


def test_sweep_records_follow_the_cell_schema():
    # a cell at n_train = 2 leaves LDA too few samples, so it fails alone
    grid = SweepGrid(mu_values=(0.3,), d_values=(2,), n_train_values=(2, 40),
                     n_test=100, seeds=(0,))
    table = run_sweep(grid, kinds=(ScoreKind.MAX_PROB,), workers=1)
    assert len(table.rows) == 2
    assert all(set(r) == set(RESULT_COLUMNS) for r in table.rows)
    assert len(table.failures) == 1
    assert list(table.failures[0]) == [*CELL_COLUMNS, "seed", "error"]
    assert table.failures[0]["n_train"] == 2
    for columns in (RESULT_COLUMNS, SUMMARY_COLUMNS, REPORT_COLUMNS):
        assert columns[:len(CELL_COLUMNS)] == CELL_COLUMNS


def test_summarize_sorts_cells_numerically():
    rows = [
        {**dict.fromkeys(RESULT_COLUMNS, 0.5), "d": d, "n_train": n, "seed": 0,
         "model": "lda", "score_kind": "max_prob"}
        for d in (16, 4) for n in (200, 50)
    ]
    summaries = summarize(rows)
    assert [(s["d"], s["n_train"]) for s in summaries] == [(4, 50), (4, 200), (16, 50), (16, 200)]


def test_privacy_utility_report_empty():
    assert privacy_utility_report([]) == []


CONFIG_TEXT = """\
# mialab sweep config v1
mu_values = 0.1, 0.2
d_values = 4 8
n_train_values = 40
w_values = 0.5
epsilon_values = 0.0
seeds = 0 1 2
n_test = 300
sigma = 0.15
sigma_noise = 1.0
tau_mult = 10.0
"""


def test_config_parse_and_defaults(tmp_path):
    grid = parse_sweep_config(CONFIG_TEXT)
    assert grid.mu_values == (0.1, 0.2)
    assert grid.d_values == (4, 8)
    assert grid.seeds == (0, 1, 2)
    assert grid.n_test == 300

    partial = parse_sweep_config("# mialab sweep config v1\nd_values = 4\n")
    assert partial.d_values == (4,)
    assert partial.n_train_values == (50, 200, 2000)  # default preserved

    path = tmp_path / "sweep.cfg"
    path.write_text(CONFIG_TEXT)
    assert load_sweep_config(str(path)).n_test == 300


def test_config_rejects_bad_input():
    with pytest.raises(ValidationError):
        parse_sweep_config("d_values = 4\n")  # missing header
    with pytest.raises(ValidationError):
        parse_sweep_config("# mialab sweep config v1\nunknown_key = 3\n")
    with pytest.raises(ValidationError):
        parse_sweep_config("# mialab sweep config v1\nd_values = four\n")
    with pytest.raises(ValidationError):
        parse_sweep_config("# mialab sweep config v1\nsigma = 1 2\n")
    with pytest.raises(ValidationError):
        parse_sweep_config("# mialab sweep config v1\nno equals sign here\n")


def test_grid_validation():
    with pytest.raises(ValidationError):
        SweepGrid(mu_values=())
    # a repeated value would run one cell twice under the same derived seed
    with pytest.raises(ValidationError, match="seeds repeats the value 3"):
        SweepGrid(seeds=(3, 1, 3))
    with pytest.raises(ValidationError, match="mu_values repeats the value 0.2"):
        parse_sweep_config("# mialab sweep config v1\nmu_values = 0.2 0.1 0.20\n")
    # the later line would silently replace the earlier one
    with pytest.raises(ValidationError, match="config key 'mu_values' appears twice"):
        parse_sweep_config("# mialab sweep config v1\nmu_values = 0.1\nmu_values = 0.3\n")


def test_worker_env_var_default(monkeypatch):
    from mialab.harness import resolve_workers

    monkeypatch.delenv("MIALAB_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    monkeypatch.setenv("MIALAB_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    with pytest.raises(ValidationError):
        resolve_workers(0)
    monkeypatch.setenv("MIALAB_WORKERS", "abc")
    with pytest.raises(ValidationError, match="MIALAB_WORKERS must be an integer, got 'abc'"):
        resolve_workers(None)


@settings(max_examples=300, deadline=None)
@given(config_payloads(harness.CONFIG_HEADER, sorted(f.name for f in fields(SweepGrid))
                       + ["", "bogus", "# note"]))
def test_parse_sweep_config_raises_only_typed_errors(text):
    try:
        parse_sweep_config(text)
    except MialabError:
        pass
