"""The scipy functions mialab calls, each imported on its first call.

Importing ``scipy.special``, ``scipy.optimize`` and ``scipy.linalg`` takes
most of a mialab start-up, and ``generate``, ``bounds``, ``plot`` and
``report`` never call them.  So ``linear_models`` and ``gbm`` bind these
stand-ins as module-level names instead, and ``import mialab`` loads numpy
alone.  A stand-in imports its scipy module the first time it is called and
then calls the real function.

``scipy.linalg`` maps scipy's own OpenBLAS, a second library beside numpy's.
A sweep, and each of its pool workers, calls :func:`load` before it pins the
BLAS threads, so the pin finds both libraries whatever the start method.
"""

from __future__ import annotations

import importlib


class ScipyFunction:
    """Callable stand-in for ``module.name`` that imports ``module`` on first call."""

    __slots__ = ("module", "name", "_function")

    def __init__(self, module: str, name: str):
        self.module, self.name, self._function = module, name, None

    def resolve(self):
        """The scipy function itself, imported on the first call."""
        if self._function is None:
            self._function = getattr(importlib.import_module(self.module), self.name)
        return self._function

    def __call__(self, *args, **kwargs):
        return (self._function or self.resolve())(*args, **kwargs)


dtrmm = ScipyFunction("scipy.linalg.blas", "dtrmm")
expit = ScipyFunction("scipy.special", "expit")
minimize = ScipyFunction("scipy.optimize", "minimize")
solve_triangular = ScipyFunction("scipy.linalg", "solve_triangular")


def load() -> None:
    """Import every scipy function above now, as a sweep does before it pins and forks."""
    for function in (dtrmm, expit, minimize, solve_triangular):
        function.resolve()
