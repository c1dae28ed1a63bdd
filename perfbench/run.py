"""mialab benchmark: one workload, end-to-end metrics or a traced run per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy_sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload for about ``--seconds`` (at least twice)
and reports the end-to-end metrics.  ``--trace 1`` runs the workload once
untraced at its worker count, once untraced in-process at one worker, then
twice traced in-process at one worker, and reports per-module metrics.  Both
check the outputs; the last line of standard output is one JSON object,
and the exit code is 1 when a check failed.  The benchmark sets no BLAS or
OpenMP thread variable: it measures the program as users run it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 2
MAX_MEASURE_S = 120.0
THREAD_ENV = re.compile(r"^(OMP|OPENBLAS|GOTO|MKL|BLIS|VECLIB|NUMEXPR)_")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and set up, then print the set-up time")
    return p.parse_args(argv)


def setup_workload(name: str, seed: int, workdir: Path):
    """Import mialab, build the workload and set it up; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads  # imports mialab and numpy: part of what set-up costs

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r} "
                         f"(choose from {', '.join(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, workdir)
    return workload, time.perf_counter() - start


def run_context(args, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "workers": workers,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if THREAD_ENV.match(k)},
    }


def quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup(args) -> list[float]:
    """Set-up time of fresh interpreters, each importing and setting up anew."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def check_reps(reps) -> list[str]:
    """Each repetition's own errors, plus any output that differs from the first's."""
    errors = [e for r in reps for e in r.errors]
    for i, r in enumerate(reps):
        if (r.digest, r.failed) != (reps[0].digest, reps[0].failed):
            errors.append(f"repetition {i} gave output {r.digest} with {r.failed} failures, "
                          f"repetition 0 gave {reps[0].digest} with {reps[0].failed}")
    return errors


def measure(workload, args, own_setup_s: float):
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(workload.rep(workload.workers))
        elapsed = time.perf_counter() - start
        if len(reps) >= 2 and (elapsed + reps[-1].wall_s > args.seconds
                               or elapsed > MAX_MEASURE_S):
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest worker
    setup_times = [own_setup_s, *probe_setup(args)]

    attempted = sum(r.items for r in reps)
    failed = sum(r.failed for r in reps)
    items_per_s = attempted / sum(r.wall_s for r in reps)
    setup_s = statistics.median(setup_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items_per_s, "1/s"),
        "peak_rss_mb": ((self_kb + child_kb) / 1024.0, "MB"),
    }
    latencies = [x for r in reps for x in r.latencies_ms]
    p50, p90 = quantile(latencies, 50), quantile(latencies, 90)
    item, call = workload.item, workload.call
    notes = [
        f"{len(reps)} repetitions, {attempted} {item}, {len(latencies)} {call} calls",
        f"{item}_per_s = {items_per_s:.6g} 1/s (items_per_s)",
        f"setup_s samples = {', '.join(f'{t:.4f}' for t in setup_times)}",
        f"{call}_ms_p50 = {p50:.6g} ms, {call}_ms_p90 = {p90:.6g} ms, not gated; "
        f"{sum(x > p90 for x in latencies)} of {len(latencies)} calls lie beyond p90",
        f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} {item})",
        f"output sha256 = {reps[0].digest}",
    ]
    return metrics, attempted, failed, check_reps(reps), notes


def measure_traced(workload, args, context: dict):
    from tracing import COUNT_UNITS, EXACT_COUNTS, SPAN_NAMES, Tracer

    base = workload.rep(workload.workers)
    serial = workload.rep(1)
    tracer = Tracer()
    passes = []
    with tracer.installed():
        for _ in range(2):
            tracer.start_pass()
            passes.append((workload.rep(1), tracer.pass_summary()))

    reps = [base, serial] + [r for r, _ in passes]
    errors = check_reps(reps)
    (traced_a, first), (traced_b, second) = passes
    for name in EXACT_COUNTS:
        if first.get(name, 0.0) != second.get(name, 0.0):
            errors.append(f"{name} differs between traced passes: "
                          f"{first.get(name)} != {second.get(name)}")

    metrics = {}
    for name in SPAN_NAMES:
        busy = (first.get(f"{name}.busy_s", 0.0) + second.get(f"{name}.busy_s", 0.0)) / 2
        metrics[f"{name}.busy_s"] = (busy, "s")
    metrics.update({name: (first.get(name, 0.0), unit) for name, unit in COUNT_UNITS.items()})
    logistic_calls = first.get("linear_models.fit_logistic.calls", 0.0)
    converged = first.get("linear_models.fit_logistic.converged", 0.0)
    traced_s = (traced_a.wall_s + traced_b.wall_s) / 2
    metrics.update({
        "linear_models.fit_logistic.converged_frac":
            (converged / logistic_calls if logistic_calls else 0.0, "frac"),
        # Traced serial cell time over the capacity the untraced sweep had.
        "harness.parallel_efficiency": (
            first.get("harness.run_cell.total_s", 0.0) / (workload.workers * base.wall_s)
            if workload.workers > 1 else 0.0, "frac"),
        "trace_overhead_frac": ((traced_s - serial.wall_s) / serial.wall_s, "frac"),
    })
    attempted = sum(r.items for r in reps)
    failed = sum(r.failed for r in reps)
    notes = [
        f"untraced at {workload.workers} worker(s): {base.wall_s:.4f} s; untraced serial: "
        f"{serial.wall_s:.4f} s; traced serial: {traced_a.wall_s:.4f} s, "
        f"{traced_b.wall_s:.4f} s",
        f"{len(tracer.spans)} spans; counts labelled _computed are derived from array "
        "shapes, not measured",
        f"output sha256 = {base.digest}",
    ]
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "context": context,
        "spans": [{"name": n, "start": s, "end": e, "parent": p}
                  for n, s, e, p in tracer.spans],
        "passes": [first, second],
    }))
    notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics, attempted, failed, errors, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mialab" / "__init__.py").is_file():
        print(f"perfbench: no mialab sources under {ROOT / 'src'}; run it from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload, setup_s = setup_workload(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(f"{setup_s!r}")
            return 0
        context = run_context(args, workload.workers)
        print("context: " + json.dumps(context, sort_keys=True))
        if args.trace:
            metrics, attempted, failed, errors, notes = measure_traced(workload, args, context)
        else:
            metrics, attempted, failed, errors, notes = measure(workload, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in notes:
        print(f"{args.workload}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for error in errors:
        print(f"{args.workload}: CHECK FAILED: {error}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
