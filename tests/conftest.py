import sys
from pathlib import Path

# make the local test-only oracle modules importable regardless of rootdir
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest


@pytest.fixture
def lda_log_joints_calls(monkeypatch):
    """Row counts of every ``lda_log_joints`` call, through any mialab module's binding."""
    import mialab

    real = mialab.linear_models.lda_log_joints
    calls = []

    def counting(model, X):
        calls.append(X.shape[0])
        return real(model, X)

    for name, module in list(sys.modules.items()):
        if name.startswith("mialab.") and getattr(module, "lda_log_joints", None) is real:
            monkeypatch.setattr(module, "lda_log_joints", counting)
    return calls
