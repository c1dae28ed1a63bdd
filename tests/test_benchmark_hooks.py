"""The benchmark's traced run patches mialab functions by name.

``perfbench/tracing.py`` names each function it wraps; a rename or deletion
there would only show when the traced benchmark fails at ``getattr``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from mialab.attacks import run_gbm_attack

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module_name, function_name, _ in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function_name, None)), f"{module_name}.{function_name}"


def test_run_gbm_attack_keeps_the_benchmark_keywords():
    parameters = inspect.signature(run_gbm_attack).parameters
    assert {"interface", "split_seed"} <= set(parameters)
