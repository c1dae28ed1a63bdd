"""AUROC, direction-invariant advantage, JSD, and summary statistics.

AUROC is computed as the Mann-Whitney rank statistic: the fraction of
(member, nonmember) pairs where the member scores more member-like, with
ties counted 1/2.  That equals the trapezoidal area under the ROC curve
obtained by sweeping a decision threshold.  The score's orientation is
applied first, so kinds where lower means "more member-like" are handled
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import AttackScores, Orientation, ScoreKind
from .datagen import GenParams
from .errors import InsufficientDataError, ValidationError

RESULT_COLUMNS = (
    "d",
    "n_train",
    "mu",
    "sigma",
    "sigma_noise",
    "w",
    "epsilon",
    "seed",
    "model",
    "score_kind",
    "auroc",
    "advantage",
    "accuracy",
)

# The column schema of every table the CLI writes: int columns and string
# columns are written verbatim, every other column is a float.
_INT_COLUMNS = frozenset({"d", "n_train", "seed", "n_seeds"})
_STR_COLUMNS = frozenset({"model", "score_kind", "side", "kind"})


@dataclass(frozen=True)
class AttackResult:
    auroc: float
    advantage: float
    kind: ScoreKind
    n_member: int
    n_nonmember: int
    cell: GenParams | None = None


@dataclass(frozen=True)
class Histogram:
    """A normalized histogram over strictly increasing bin edges."""

    bin_edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        masses = np.asarray(self.masses, dtype=np.float64)
        if edges.ndim != 1 or masses.ndim != 1 or masses.size != edges.size - 1:
            raise ValidationError("need len(bin_edges) == len(masses) + 1")
        if not np.all(np.diff(edges) > 0):
            raise ValidationError("bin edges must be strictly increasing")
        if masses.min() < 0 or abs(masses.sum() - 1.0) > 1e-12:
            raise ValidationError("masses must be nonnegative and sum to 1")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the group average (a half-integer)."""
    order = np.argsort(values, kind="mergesort")
    sorted_v = values[order]
    n = values.size
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_v[1:] != sorted_v[:-1]
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    last = np.cumsum(counts)
    avg = (last - counts + 1 + last) / 2.0
    ranks = np.empty(n)
    ranks[order] = avg[group_id]
    return ranks


def auroc(scores: AttackScores) -> float:
    """Rank-statistic AUROC of the member vs nonmember score samples."""
    members = np.asarray(scores.member_scores, dtype=np.float64)
    nonmembers = np.asarray(scores.nonmember_scores, dtype=np.float64)
    if members.size == 0 or nonmembers.size == 0:
        raise InsufficientDataError("both score sides must be nonempty")
    if scores.orientation is Orientation.LOWER_IS_MEMBER:
        members, nonmembers = -members, -nonmembers
    ranks = _average_ranks(np.concatenate([members, nonmembers]))
    n_m, n_n = members.size, nonmembers.size
    rank_sum = float(ranks[:n_m].sum())
    return (rank_sum - n_m * (n_m + 1) / 2.0) / (n_m * n_n)


def advantage(auroc_value: float) -> float:
    """Direction-invariant advantage ``max(a, 1 - a)``."""
    if not 0.0 <= auroc_value <= 1.0:
        raise ValidationError(f"auroc must lie in [0, 1], got {auroc_value!r}")
    return max(auroc_value, 1.0 - auroc_value)


def attack_result(scores: AttackScores, cell: GenParams | None = None) -> AttackResult:
    a = auroc(scores)
    return AttackResult(
        auroc=a,
        advantage=advantage(a),
        kind=scores.kind,
        n_member=scores.member_scores.size,
        n_nonmember=scores.nonmember_scores.size,
        cell=cell,
    )


def equal_width_edges(values: np.ndarray, n_bins: int = 32) -> np.ndarray:
    """Equal-width bin edges spanning the (pooled) value range."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0 or not np.isfinite(values).all():
        raise ValidationError("need nonempty finite values to bin")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, n_bins + 1)


def histogram(values: np.ndarray, bin_edges: np.ndarray) -> Histogram:
    """Histogram of ``values`` over the given edges; all values must fall inside."""
    values = np.asarray(values, dtype=np.float64)
    counts, _ = np.histogram(values, bins=bin_edges)
    total = counts.sum()
    if total != values.size:
        raise ValidationError("values fall outside the bin range")
    return Histogram(bin_edges=np.asarray(bin_edges, dtype=np.float64),
                     masses=counts / total)


def jsd(p: Histogram, q: Histogram) -> float:
    """Jensen-Shannon divergence (natural log) between two aligned histograms."""
    if not np.array_equal(p.bin_edges, q.bin_edges):
        raise ValidationError("histograms must share identical bin edges")
    pm, qm = p.masses, q.masses
    mm = 0.5 * (pm + qm)

    def half_kl(a: np.ndarray) -> float:
        nz = a > 0.0
        return float(np.sum(a[nz] * np.log(a[nz] / mm[nz])))

    return 0.5 * half_kl(pm) + 0.5 * half_kl(qm)


def score_jsd(scores: AttackScores, n_bins: int = 32) -> float:
    """JSD between member and nonmember score histograms on pooled bins.

    A memorization diagnostic: large values mean the two score laws are far
    apart, i.e. heavy train/test leakage.
    """
    pooled = np.concatenate([scores.member_scores, scores.nonmember_scores])
    edges = equal_width_edges(pooled, n_bins)
    return jsd(histogram(scores.member_scores, edges),
               histogram(scores.nonmember_scores, edges))


def mean_sem(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error (n-1 denominator; 0 when n == 1)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 1:
        raise ValidationError("need at least one value")
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


def sort_key(row: dict, columns) -> tuple:
    """Order key of ``row`` on ``columns``: numbers numerically, strings lexically."""
    return tuple(str(row[c]) if c in _STR_COLUMNS else float(row[c]) for c in columns)


def write_table(path: str, columns, rows, sort_by: int = 0, float_format: str = ".6f") -> None:
    """Write dict ``rows`` as a CSV table under the shared column schema.

    Int columns are written verbatim, string columns verbatim, and every
    other column as a float with ``float_format``.  The first ``sort_by``
    columns order the rows: numbers numerically, strings lexically.
    """
    if sort_by:
        rows = sorted(rows, key=lambda r: sort_key(r, columns[:sort_by]))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                str(int(row[c])) if c in _INT_COLUMNS
                else str(row[c]) if c in _STR_COLUMNS
                else format(float(row[c]), float_format)
                for c in columns) + "\n")


def write_results_csv(rows, path: str) -> None:
    """Write the per-(cell, seed, model, score) results table, sorted."""
    write_table(path, RESULT_COLUMNS, rows, sort_by=10)


def read_results_csv(path: str) -> list[dict]:
    """Read a results CSV; a missing column or a malformed row raises ``ValidationError``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        missing = [c for c in RESULT_COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"results CSV missing columns: {', '.join(missing)}")
        pos = {c: header.index(c) for c in RESULT_COLUMNS}
        rows = []
        for line_no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValidationError(
                    f"row {line_no}: expected {len(header)} fields, got {len(parts)}")
            row: dict = {}
            for c in RESULT_COLUMNS:
                raw = parts[pos[c]]
                try:
                    row[c] = raw if c in _STR_COLUMNS else (
                        int(raw) if c in _INT_COLUMNS else float(raw))
                except ValueError:
                    raise ValidationError(f"row {line_no}: bad {c} value {raw!r}") from None
            rows.append(row)
    return rows
