"""Spans around calls into mialab's public functions, recorded from outside.

The tracer replaces every binding of a traced function across the loaded
``mialab`` modules (the defining module and each module that imported the
name) with a wrapper that records a span: name, start, end and the span
that was open when it began.  Spans stay in memory until the run writes
them out.  A span's self time is its duration minus the durations of its
direct children, so a layer's ``busy_s`` excludes the traced layers it
calls.  Counters are computed from each call's arguments and result at the
same boundary, which keeps them exact and repeatable.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


def _count_dataset(counts, args, kwargs, result):
    n, d = result.features.shape
    counts["datagen.generate_dataset.mb_computed"] += n * d * 8 / 1e6


def _count_logistic(counts, args, kwargs, result):
    counts["linear_models.fit_logistic.iterations"] += result.iterations
    counts["linear_models.fit_logistic.converged"] += int(result.converged)


def _count_log_joints(counts, args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    n, d = result.shape[0], X.shape[-1]
    counts["linear_models.lda_log_joints.rows"] += n
    counts["linear_models.lda_log_joints.gflop_computed"] += 2.0 * n * d * d / 1e9


def _tree_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _count_gbm(counts, args, kwargs, result):
    counts["gbm.fit_gbm.nodes"] += sum(_tree_nodes(t) for t in result.trees)


# (defining module, function, counter).  These are the public calls named in
# the benchmark's per-layer table; everything else a layer does is self time.
TRACED = (
    ("mialab.harness", "run_cell", None),
    ("mialab.datagen", "generate_dataset", _count_dataset),
    ("mialab.linear_models", "fit_logistic", _count_logistic),
    ("mialab.linear_models", "fit_lda", None),
    ("mialab.linear_models", "lda_log_joints", _count_log_joints),
    ("mialab.linear_models", "logistic_posteriors", None),
    ("mialab.attacks", "threshold_scores", None),
    ("mialab.attacks", "run_gbm_attack", None),
    ("mialab.gbm", "fit_gbm", _count_gbm),
    ("mialab.gbm", "gbm_predict_matrix", None),
    ("mialab.metrics", "attack_result", None),
    ("mialab.metrics", "write_results_csv", None),
    ("mialab.divergence", "sample_dirichlet_joint", None),
    ("mialab.divergence", "decompose", None),
    ("mialab.divergence", "pushforward", None),
    ("mialab.divergence", "log_joint_vector_channel", None),
    ("mialab.divergence", "softmax_channel", None),
    ("mialab.divergence", "dominance_probe", None),
)

SPAN_NAMES = tuple(f"{mod.split('.', 1)[1]}.{fn}" for mod, fn, _ in TRACED)

# Counters reported as per-layer metrics, with their units.  Names ending in
# _computed are derived from array shapes, not measured.
COUNT_UNITS = {
    "datagen.generate_dataset.calls": "count",
    "datagen.generate_dataset.mb_computed": "MB",
    "linear_models.fit_logistic.iterations": "count",
    "linear_models.lda_log_joints.rows": "count",
    "linear_models.lda_log_joints.gflop_computed": "GFLOP",
    "gbm.fit_gbm.calls": "count",
    "gbm.fit_gbm.nodes": "count",
}

# Counters that must repeat exactly between two traced passes on one seed.
EXACT_COUNTS = (
    "linear_models.fit_logistic.iterations",
    "gbm.fit_gbm.nodes",
    "linear_models.lda_log_joints.gflop_computed",
    "datagen.generate_dataset.mb_computed",
)


class Tracer:
    """In-memory span recorder; ``installed()`` patches, ``pass_summary()`` reduces."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._pass_start = 0

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every mialab binding of each traced function through a span."""
        patched = []
        try:
            for (mod_name, fn_name, counter), span_name in zip(TRACED, SPAN_NAMES):
                original = getattr(sys.modules[mod_name], fn_name)
                wrapper = self._wrap(span_name, original, counter)
                for name, module in list(sys.modules.items()):
                    if (name == "mialab" or name.startswith("mialab.")) and \
                            getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        patched.append((module, fn_name, original))
            yield self
        finally:
            for module, fn_name, original in reversed(patched):
                setattr(module, fn_name, original)

    def start_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counts.clear()

    def pass_summary(self) -> dict[str, float]:
        """Self time, call count and counters of the spans since ``start_pass``."""
        out: dict[str, float] = defaultdict(float)
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent in spans[self._pass_start:]:
            if parent >= self._pass_start:
                child_time[parent] += end - start
        for i in range(self._pass_start, len(spans)):
            name, start, end, _ = spans[i]
            out[f"{name}.busy_s"] += (end - start) - child_time[i]
            out[f"{name}.calls"] += 1
            if name == "harness.run_cell":
                out["harness.run_cell.total_s"] += end - start
        out.update(self.counts)
        return dict(out)
