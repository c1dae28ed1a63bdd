import sys
from pathlib import Path

# make the local test-only oracle modules importable regardless of rootdir
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest


def _record_calls(monkeypatch, real, calls, entry):
    """Route every mialab module's binding of ``real`` through one that logs
    ``entry(*args, **kwargs)``."""

    def counting(*args, **kwargs):
        calls.append(entry(*args, **kwargs))
        return real(*args, **kwargs)

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
def stack_work_calls(monkeypatch):
    """Names of every table draw, certification kernel pass, stage and shared
    table computed inside it."""
    from mialab import divergence

    calls = []
    for real in (divergence.sample_dirichlet_joint, divergence._certify_stack,
                 divergence._conditional_stack, divergence._log_tables,
                 divergence.decompose, divergence.pushforward,
                 divergence.log_joint_vector_channel, divergence.softmax_channel,
                 divergence.dominance_probe):
        _record_calls(monkeypatch, real, calls,
                      lambda *args, name=real.__name__, **kwargs: name)
    return calls
