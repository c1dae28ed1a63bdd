"""Check mialab's output bytes against the digests committed in ``tools/expected``.

Usage: python tools/check_bytes.py [--update]

It runs both producers of output bytes in this checkout: ``tools/cli_digests.py``,
whose MANIFEST is compared with ``tools/expected/MANIFEST``, and the built-in
sweep grid (``mialab sweep`` with no config) at ``--workers 1`` and ``2``, whose
results and summary CSV digests are compared with
``tools/expected/default_grid.sha256``.  It lists every changed, missing or new
entry and exits 1 on any difference.  The bytes also depend on the Python,
numpy and scipy versions and on the OpenBLAS kernels picked for this CPU, so it
compares this run's environment with ``tools/expected/ENVIRONMENT`` and names
each field that differs: there, a byte difference may come from the machine
rather than the code.

With ``--update`` it writes the three expected files from this run instead; a
change that alters output bytes commits them, and their diff lists what
changed.  The outputs go to a temporary directory that is removed; to look at
them, run ``tools/cli_digests.py OUTDIR`` itself.  A run takes about 35 s on
two cores.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tools" / "expected"
GRID_WORKERS = (1, 2)
# (prefix, suffix) of the OpenBLAS builds numpy and scipy ship, as in
# ``mialab.harness._OPENBLAS_THREAD_FUNCS``
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                   ("openblas", "64_"), ("openblas", ""))


def _openblas_fields() -> dict[str, str]:
    """``openblas <library file>`` -> its build config and the core it picked,
    for each OpenBLAS mapped into this process once numpy and scipy load."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401  maps scipy's own OpenBLAS

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                            if len(parts) == 6 and "openblas" in parts[5]})
    except OSError:
        return {}
    fields = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in _OPENBLAS_NAMES:
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                core = getattr(lib, f"{prefix}_get_corename{suffix}")
            except AttributeError:
                continue
            config.restype = core.restype = ctypes.c_char_p
            fields[f"openblas {Path(path).name}"] = (
                f"{' '.join(config().decode().split())}; core {core().decode()}")
            break
    return fields


def environment() -> dict[str, str]:
    """The fields of this interpreter's ENVIRONMENT file."""
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), **_openblas_fields()}


def _run(args: list[str], cwd: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def produce(out: Path) -> tuple[str, str]:
    """Run both producers under ``out``; return the MANIFEST and grid digest texts."""
    _run([str(ROOT / "tools" / "cli_digests.py"), str(out / "cli")], ROOT)
    grid = out / "grid"
    grid.mkdir()
    names = []
    for workers in GRID_WORKERS:
        names += [f"results_w{workers}.csv", f"summary_w{workers}.csv"]
        _run(["-m", "mialab.cli", "sweep", "--workers", str(workers), "--out", names[-2],
              "--summary-out", names[-1]], grid)
    digests = "".join(f"{hashlib.sha256((grid / name).read_bytes()).hexdigest()}  {name}\n"
                      for name in names)
    return (out / "cli" / "MANIFEST").read_text(), digests


def _entries(text: str) -> dict[str, str]:
    """``path -> digest`` of a ``sha256  path`` listing."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines())}


def _fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines())


def diff(name: str, expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per key of either mapping whose value differs."""
    lines = []
    for key in sorted(expected.keys() | actual.keys()):
        if key not in actual:
            lines.append(f"{name}: missing {key}")
        elif key not in expected:
            lines.append(f"{name}: new {key}")
        elif expected[key] != actual[key]:
            lines.append(f"{name}: changed {key}")
    return lines


def main(argv: list[str]) -> int:
    if argv not in ([], ["--update"]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    env = environment()
    env_text = "".join(f"{key}: {value}\n" for key, value in env.items())
    with tempfile.TemporaryDirectory() as out:
        manifest, grid = produce(Path(out))
    if argv:
        EXPECTED.mkdir(exist_ok=True)
        for name, text in (("MANIFEST", manifest), ("default_grid.sha256", grid),
                           ("ENVIRONMENT", env_text)):
            (EXPECTED / name).write_text(text)
        print(f"wrote the expected files to {EXPECTED}")
        return 0
    changed = [*diff("MANIFEST", _entries((EXPECTED / "MANIFEST").read_text()),
                     _entries(manifest)),
               *diff("default_grid.sha256",
                     _entries((EXPECTED / "default_grid.sha256").read_text()), _entries(grid))]
    drift = diff("ENVIRONMENT", _fields((EXPECTED / "ENVIRONMENT").read_text()), env)
    for line in changed + drift:
        print(line)
    if drift:
        print(f"the environment differs from the expected one in {len(drift)} field(s): "
              "a byte difference may come from the machine, not the code")
    if changed:
        print(f"{len(changed)} output entries differ from {EXPECTED}")
        return 1
    print(f"all {len(_entries(manifest)) + len(_entries(grid))} output entries match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
