import functools
import sys
from pathlib import Path

# make the local test-only oracle modules importable regardless of rootdir
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest


def _record_calls(monkeypatch, real, calls, entry):
    """Route every mialab module's binding of ``real`` through one that logs ``entry(*args)``."""

    def counting(*args):
        calls.append(entry(*args))
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("mialab.") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counting)


@pytest.fixture
def lda_log_joints_calls(monkeypatch):
    """Row counts of every ``lda_log_joints`` call, through any mialab module's binding."""
    from mialab import linear_models

    calls = []
    _record_calls(monkeypatch, linear_models.lda_log_joints, calls,
                  lambda model, X: X.shape[0])
    return calls


@pytest.fixture
def row_channel_calls(monkeypatch):
    """Names of every ``log_joint_vector_channel`` and ``softmax_channel`` call."""
    from mialab import divergence

    calls = []
    for real in (divergence.log_joint_vector_channel, divergence.softmax_channel):
        _record_calls(monkeypatch, real, calls, lambda joint, name=real.__name__: name)
    return calls


@pytest.fixture
def joint_work_calls(monkeypatch):
    """Names of every ``decompose`` call and every computation of a joint's cached
    tables (``conditionals``, ``log_table``)."""
    from mialab import divergence

    calls = []
    _record_calls(monkeypatch, divergence.decompose, calls, lambda p, q: "decompose")
    for attr, entry in (("_conditionals", "conditionals"), ("log_table", "log_table")):
        compute = getattr(divergence.DiscreteJoint, attr).func

        def counting(joint, compute=compute, entry=entry):
            calls.append(entry)
            return compute(joint)

        cached = functools.cached_property(counting)
        cached.__set_name__(divergence.DiscreteJoint, attr)
        monkeypatch.setattr(divergence.DiscreteJoint, attr, cached)
    return calls
