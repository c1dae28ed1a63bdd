"""The benchmark drives mialab through ``perfbench/``, which these tests load unedited.

``perfbench/tracing.py`` names each function it wraps; a rename or deletion
there would only show when the traced benchmark fails at ``getattr``.  Each
workload also depends on output formats, result fields and column orders
that no other test pins, so one traced repetition of each must run clean.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from mialab.attacks import run_gbm_attack

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _perfbench(name):
    """``perfbench/<name>.py`` as a module; dataclasses need it in ``sys.modules``."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def test_every_traced_function_resolves():
    traced = _perfbench("tracing").TRACED
    assert traced
    for module_name, function_name, _ in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function_name, None)), f"{module_name}.{function_name}"


def test_run_gbm_attack_keeps_the_benchmark_keywords():
    parameters = inspect.signature(run_gbm_attack).parameters
    assert {"interface", "split_seed"} <= set(parameters)


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_each_workload_runs_one_traced_repetition_cleanly(tmp_path, name):
    workload = _perfbench("workloads").WORKLOADS[name]()
    workload.setup(1, tmp_path)
    tracer = _perfbench("tracing").Tracer()
    with tracer.installed():
        tracer.start_pass()
        rep = workload.rep(1)
        summary = tracer.pass_summary()
    assert rep.errors == []
    assert rep.failed == 0
    assert rep.items > 0 and summary
