"""What a fresh interpreter loads, and what a sweep pins there.

This test process has scipy loaded already, so these checks each run a new
interpreter: one in which ``import mialab`` has not pulled scipy in.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest
import scipy.linalg  # noqa: F401  maps scipy's OpenBLAS into this process, as a sweep does

from mialab import harness

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str, *args: str):
    """The JSON that ``code`` prints last, run with ``args`` in a fresh interpreter on this
    checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_importing_every_mialab_module_loads_no_scipy():
    modules = sorted(f"mialab.{p.stem}" for p in (SRC / "mialab").glob("*.py"))
    loaded = _run(
        "import importlib, json, sys\n"
        f"for name in {modules!r}: importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    assert loaded == []


# Each cell of a stand-in run_cell reports its OpenBLAS thread counts and whether
# scipy.optimize was loaded before it ran; a forked worker inherits the stand-in.
_SWEEP = """
import json, sys
from mialab import harness
from mialab.attacks import ScoreKind

def report(params, kinds):
    threads = [get() for get, _ in harness.openblas_thread_controls()]
    raise RuntimeError(json.dumps([threads, "scipy.optimize" in sys.modules]))

harness.run_cell = report
grid = harness.SweepGrid(mu_values=(0.1, 0.4), d_values=(4,), n_train_values=(40,),
                         n_test=100, seeds=(0, 1))
table = harness.run_sweep(grid, kinds=(ScoreKind.MAX_PROB,), workers=int(sys.argv[1]))
print(json.dumps([json.loads(f["error"].split(": ", 1)[1]) for f in table.failures]))
"""


@pytest.mark.skipif(not harness.openblas_thread_controls(), reason="no OpenBLAS library is mapped")
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_loads_scipy_then_pins_every_openblas_library(workers):
    cells = _run(_SWEEP, str(workers))
    # every library this scipy-loaded process maps, scipy's own OpenBLAS among them
    ones = [1] * len(harness.openblas_thread_controls())
    assert cells == [[ones, True]] * 4


def _thread_counts():
    """OpenBLAS thread counts of the process this runs in, each library's in turn."""
    return [get() for get, _ in harness.openblas_thread_controls()]


@pytest.mark.skipif(not harness.openblas_thread_controls(), reason="no OpenBLAS library is mapped")
def test_sweep_worker_pins_every_openblas_library_when_spawned():
    # a spawned worker inherits nothing: only the initializer loads scipy before it pins
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn"),
                             initializer=harness._start_worker) as pool:
        threads = pool.submit(_thread_counts).result(timeout=120)
    assert threads == [1] * len(harness.openblas_thread_controls())
