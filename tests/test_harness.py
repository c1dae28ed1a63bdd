import numpy as np
import pytest

from mialab.attacks import ScoreKind
from mialab.datagen import GenParams
from mialab.errors import MialabError, ValidationError
from mialab import harness
from mialab.harness import (
    DEFAULT_SCORE_KINDS,
    REPORT_COLUMNS,
    SUMMARY_COLUMNS,
    SweepGrid,
    cell_seed,
    load_sweep_config,
    parse_sweep_config,
    privacy_utility_report,
    run_cell,
    run_sweep,
    summarize,
)
from mialab.metrics import RESULT_COLUMNS, write_results_csv, write_table

SMALL_GRID = SweepGrid(
    mu_values=(0.1, 0.4),
    d_values=(4,),
    n_train_values=(40,),
    n_test=400,
    seeds=(0, 1),
)


def _rows_key(table):
    return sorted(tuple(sorted(r.items())) for r in table.rows)


def _openblas_threads():
    return [get() for get, _ in harness.openblas_thread_controls()]


needs_openblas = pytest.mark.skipif(
    not harness.openblas_thread_controls(), reason="no OpenBLAS library is mapped")


def test_run_cell_no_signal_cell_is_null():
    # mu=0 removes the class signal; with n/d large the fitted models barely
    # depend on any single sample, so the attack is null too.  (At small n/d
    # the mu=0 attack is NOT null: memorization alone leaks membership.)
    params = GenParams(d=4, n_train=1000, mu=0.0, seed=0)
    result = run_cell(params)
    for acc in result.accuracies.values():
        assert abs(acc - 0.5) <= 0.03
    for att in result.attacks.values():
        assert abs(att.advantage - 0.5) <= 0.07


def test_null_calibration_at_scale_well_conditioned():
    # across no-signal cells in the generalizing regime the advantage
    # distribution sits near chance on average
    advantages = []
    for d, n in ((16, 200), (16, 2000), (64, 2000)):
        for seed in range(3):
            result = run_cell(GenParams(d=d, n_train=n, mu=0.0, seed=seed))
            advantages.extend(att.advantage for att in result.attacks.values())
    assert np.mean(advantages) <= 0.55


def test_run_cell_is_deterministic_and_complete():
    params = GenParams(d=6, n_train=60, mu=0.3, seed=3)
    a = run_cell(params)
    b = run_cell(params)
    assert a.accuracies == b.accuracies
    assert set(a.attacks) == set(b.attacks)
    for key, att in a.attacks.items():
        assert att.auroc == b.attacks[key].auroc
        assert att.advantage == max(att.auroc, 1 - att.auroc)
    assert ("logistic", ScoreKind.LDA_LOG_JOINT) not in a.attacks
    assert ("lda", ScoreKind.LDA_LOG_JOINT) in a.attacks
    kinds = {k for (_, k) in a.attacks}
    assert kinds == set(DEFAULT_SCORE_KINDS)


def test_run_cell_gbm_kinds():
    params = GenParams(d=4, n_train=60, n_test=200, mu=0.3, seed=5)
    result = run_cell(params, kinds=(ScoreKind.GBM_PROBS, ScoreKind.GBM_LOGITS))
    assert set(result.attacks) == {
        ("logistic", ScoreKind.GBM_PROBS),
        ("logistic", ScoreKind.GBM_LOGITS),
        ("lda", ScoreKind.GBM_PROBS),
        ("lda", ScoreKind.GBM_LOGITS),
    }
    for att in result.attacks.values():
        assert att.n_member >= 15  # half of the downsampled pool


def test_run_cell_attaches_cell_context_to_errors():
    params = GenParams(d=2, n_train=2, mu=0.1, seed=1)  # 2 samples: LDA must fail
    with pytest.raises(MialabError) as err:
        run_cell(params)
    assert "cell" in str(err.value)


def test_cell_seed_no_collisions_on_default_grid():
    grid = SweepGrid()
    seeds = {cell_seed(0, p.seed, p) for p in grid.cells()}
    assert len(seeds) == len(grid.cells()) == 450


def test_cell_seed_sensitive_to_every_axis():
    base = GenParams(d=4, n_train=40, mu=0.1, seed=0)
    s0 = cell_seed(0, 0, base)
    assert cell_seed(1, 0, base) != s0
    assert cell_seed(0, 1, base) != s0
    assert cell_seed(0, 0, GenParams(d=8, n_train=40, mu=0.1, seed=0)) != s0
    assert cell_seed(0, 0, GenParams(d=4, n_train=40, mu=0.2, seed=0)) != s0


def test_run_sweep_single_cell_sem_zero():
    grid = SweepGrid(mu_values=(0.2,), d_values=(4,), n_train_values=(40,),
                     n_test=200, seeds=(7,))
    table = run_sweep(grid, kinds=(ScoreKind.MAX_PROB,))
    assert len(table.rows) == 2  # one per model
    summaries = summarize(table)
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
    summaries = summarize(table)
    assert len(summaries) == 2 * 3
    report = privacy_utility_report(table)
    assert len(report) == len(summaries)
    assert all(set(("utility", "advantage")) <= set(r) for r in report)

    write_table(str(tmp_path / "summary.csv"), SUMMARY_COLUMNS, summaries, sort_by=9)
    write_table(str(tmp_path / "report.csv"), REPORT_COLUMNS, report, sort_by=9)
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header.startswith("d,n_train,mu,") and "auroc_mean" in header
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header.endswith("utility,advantage")


def test_summarize_sorts_cells_numerically():
    rows = [
        {**dict.fromkeys(RESULT_COLUMNS, 0.5), "d": d, "n_train": n, "seed": 0,
         "model": "lda", "score_kind": "max_prob"}
        for d in (16, 4) for n in (200, 50)
    ]
    summaries = summarize(harness.SweepTable(rows=rows))
    assert [(s["d"], s["n_train"]) for s in summaries] == [(4, 50), (4, 200), (16, 50), (16, 200)]


def test_privacy_utility_report_empty():
    from mialab.harness import SweepTable

    assert privacy_utility_report(SweepTable()) == []


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


def test_worker_env_var_default(monkeypatch):
    from mialab.harness import resolve_workers

    monkeypatch.delenv("MIALAB_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    monkeypatch.setenv("MIALAB_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    with pytest.raises(ValidationError):
        resolve_workers(0)
