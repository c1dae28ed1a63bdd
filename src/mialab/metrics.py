"""AUROC, direction-invariant advantage, summary statistics and CSV tables.

AUROC is the Mann-Whitney statistic: the fraction of (member, nonmember)
pairs where the member scores more member-like, with ties counted 1/2.
That equals the trapezoidal area under the ROC curve obtained by sweeping a
decision threshold.  The score kind's orientation is applied first, so
kinds where lower means "more member-like" are handled uniformly.

The pairs are counted, not enumerated: with the nonmember scores sorted,
two binary searches give each member's wins (nonmembers strictly below)
and ties.  The numerator ``wins + ties / 2`` is an exact half-integer, the
same one the rank-sum form ``R_m - n_m (n_m + 1) / 2`` gives, so the
quotient has the same bits as the rank statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attacks import AttackScores, Orientation, ScoreKind
from .errors import InsufficientDataError, ValidationError, open_text

# The columns that name one sweep cell; every sweep record and table starts with them.
CELL_COLUMNS = ("d", "n_train", "mu", "sigma", "sigma_noise", "w", "epsilon")
RESULT_KEY = (*CELL_COLUMNS, "seed", "model", "score_kind")  # one results row per key
RESULT_COLUMNS = (*RESULT_KEY, "auroc", "advantage", "accuracy")

# The column schema of every table the CLI writes: int columns and string
# columns are written verbatim, every other column is a float.
_INT_COLUMNS = frozenset({"d", "n_train", "seed", "n_seeds"})
_STR_COLUMNS = frozenset({"model", "score_kind", "side", "kind"})
_RESULT_STR_VALUES = {"model": frozenset({"logistic", "lda"}),
                      "score_kind": frozenset(k.value for k in ScoreKind)}


@dataclass(frozen=True)
class AttackResult:
    auroc: float
    advantage: float


def auroc(scores: AttackScores) -> float:
    """Mann-Whitney AUROC of the member vs nonmember score samples, by counting wins."""
    members = np.asarray(scores.member_scores, dtype=np.float64)
    nonmembers = np.asarray(scores.nonmember_scores, dtype=np.float64)
    if members.size == 0 or nonmembers.size == 0:
        raise InsufficientDataError("both score sides must be nonempty")
    if scores.kind.orientation is Orientation.LOWER_IS_MEMBER:
        members, nonmembers = -members, -nonmembers
    # members sorted too, so each search starts where the previous one ended
    members, nonmembers = np.sort(members), np.sort(nonmembers)
    below = np.searchsorted(nonmembers, members, side="left")
    not_above = np.searchsorted(nonmembers, members, side="right")
    wins = float(below.sum()) + 0.5 * float((not_above - below).sum())
    return wins / (members.size * nonmembers.size)


def advantage(auroc_value: float) -> float:
    """Direction-invariant advantage ``max(a, 1 - a)``."""
    if not 0.0 <= auroc_value <= 1.0:
        raise ValidationError(f"auroc must lie in [0, 1], got {auroc_value!r}")
    return max(auroc_value, 1.0 - auroc_value)


def attack_result(scores: AttackScores) -> AttackResult:
    a = auroc(scores)
    return AttackResult(auroc=a, advantage=advantage(a))


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


def write_table(path: str, columns, rows, float_format: str = ".6f") -> None:
    """Write dict ``rows``, in the order given, as a CSV table under the shared column schema.

    Int columns are written verbatim, string columns verbatim, and every
    other column as a float with ``float_format``.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                str(int(row[c])) if c in _INT_COLUMNS
                else str(row[c]) if c in _STR_COLUMNS
                else format(float(row[c]), float_format)
                for c in columns) + "\n")


def write_results_csv(rows, path: str) -> None:
    """Write the per-(cell, seed, model, score) results table, sorted on those columns."""
    write_table(path, RESULT_COLUMNS, sorted(rows, key=lambda r: sort_key(r, RESULT_KEY)))


def _result_field(column: str, raw: str):
    """Typed results-CSV field; ``ValueError`` on nan, inf, or an unknown model or kind."""
    if column in _INT_COLUMNS:
        return int(raw)
    if column in _RESULT_STR_VALUES:
        if raw not in _RESULT_STR_VALUES[column]:
            raise ValueError(raw)
        return raw
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def read_results_csv(path: str) -> list[dict]:
    """Read a results CSV; a missing column, a malformed row or a repeated key raises
    ``ValidationError``.

    A repeated (cell, seed, model, score_kind) row would count as one more
    seed in every summary, so it is rejected rather than read twice.
    """
    with open_text(path) as fh:
        header = fh.readline().strip().split(",")
        missing = [c for c in RESULT_COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"results CSV missing columns: {', '.join(missing)}")
        pos = {c: header.index(c) for c in RESULT_COLUMNS}
        rows = []
        first_row: dict[tuple, int] = {}
        for line_no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValidationError(
                    f"row {line_no}: expected {len(header)} fields, got {len(parts)}")
            row: dict = {}
            for c in RESULT_COLUMNS:
                raw = parts[pos[c]]
                try:
                    row[c] = _result_field(c, raw)
                except ValueError:
                    raise ValidationError(f"row {line_no}: bad {c} value {raw!r}") from None
            first = first_row.setdefault(tuple(row[c] for c in RESULT_KEY), line_no)
            if first != line_no:
                raise ValidationError(f"row {line_no}: repeats the cell, seed, model and "
                                      f"score_kind of row {first}")
            rows.append(row)
    return rows
