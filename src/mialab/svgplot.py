"""Static SVG emission for sweep figures.

The SVG text is assembled directly with fixed float formatting, so
identical inputs produce byte-identical files (matplotlib backends do not
guarantee that).  Each output file covers one dimensionality and stacks
two panels over the class-separation axis: test accuracy on top,
membership advantage below with a reference line at 0.5.  Series are
(model, score-kind) colors with one marker shape per training size, and
the shaded band spans mean +/- 1.96 * SEM across seeds.

Points are the per-cell means and SEMs of ``harness.summarize``.  A figure
shows one setting of sigma, sigma_noise, w and epsilon; results that mix
settings at one dimensionality are rejected rather than averaged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ValidationError
from .metrics import CELL_COLUMNS

_COLORS = {
    ("logistic", "max_prob"): "#1f77b4",
    ("lda", "max_prob"): "#ff7f0e",
    ("lda", "lda_log_joint"): "#2ca02c",
    ("logistic", "entropy"): "#17becf",
    ("lda", "entropy"): "#bcbd22",
    ("logistic", "log_loss"): "#9467bd",
    ("lda", "log_loss"): "#8c564b",
    ("logistic", "gbm_probs"): "#e377c2",
    ("lda", "gbm_probs"): "#7f7f7f",
    ("logistic", "gbm_logits"): "#aec7e8",
    ("lda", "gbm_logits"): "#98df8a",
}
_ACC_COLORS = {"logistic": "#1f77b4", "lda": "#ff7f0e"}
_MARKERS = ("circle", "square", "triangle", "diamond")

_W, _PANEL_H, _LEFT, _RIGHT, _TOP, _GAP, _BOTTOM = 760, 250, 70, 160, 34, 46, 46
_BAND_Z = 1.96
_SETTING_AXES = tuple(c for c in CELL_COLUMNS if c not in ("d", "n_train", "mu"))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


@dataclass
class _Series:
    label: str
    color: str
    marker: str
    points: list[tuple[float, float, float]]  # (mu, mean, sem)


def _marker_svg(shape: str, x: float, y: float, color: str) -> str:
    r = 3.0
    if shape == "circle":
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>'
    if shape == "square":
        return (f'<rect x="{_fmt(x - r)}" y="{_fmt(y - r)}" width="{_fmt(2 * r)}" '
                f'height="{_fmt(2 * r)}" fill="{color}"/>')
    if shape == "triangle":
        pts = f"{_fmt(x)},{_fmt(y - r)} {_fmt(x - r)},{_fmt(y + r)} {_fmt(x + r)},{_fmt(y + r)}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    pts = f"{_fmt(x)},{_fmt(y - r)} {_fmt(x + r)},{_fmt(y)} {_fmt(x)},{_fmt(y + r)} {_fmt(x - r)},{_fmt(y)}"
    return f'<polygon points="{pts}" fill="{color}"/>'


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12:
        ticks.append(round(t, 10))
        t += step
    return ticks


class _Panel:
    def __init__(self, y0: float, x_range, y_range, title: str):
        self.y0 = y0
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.title = title
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi <= self.y_lo:
            self.y_lo, self.y_hi = self.y_lo - 0.5, self.y_hi + 0.5

    def px(self, mu: float) -> float:
        frac = (mu - self.x_lo) / (self.x_hi - self.x_lo)
        return _LEFT + frac * (_W - _LEFT - _RIGHT)

    def py(self, v: float) -> float:
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.y0 + _PANEL_H - frac * _PANEL_H

    def frame(self, x_ticks, y_label: str) -> list[str]:
        parts = [
            f'<rect x="{_fmt(_LEFT)}" y="{_fmt(self.y0)}" width="{_fmt(_W - _LEFT - _RIGHT)}" '
            f'height="{_fmt(_PANEL_H)}" fill="none" stroke="#333333" stroke-width="1"/>',
            f'<text x="{_fmt(_LEFT)}" y="{_fmt(self.y0 - 8)}" font-size="13" '
            f'font-family="sans-serif" fill="#111111">{self.title}</text>',
            f'<text x="14" y="{_fmt(self.y0 + _PANEL_H / 2)}" font-size="11" '
            f'font-family="sans-serif" fill="#111111" '
            f'transform="rotate(-90 14 {_fmt(self.y0 + _PANEL_H / 2)})" '
            f'text-anchor="middle">{y_label}</text>',
        ]
        for t in x_ticks:
            x = self.px(t)
            parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(self.y0 + _PANEL_H)}" '
                         f'x2="{_fmt(x)}" y2="{_fmt(self.y0 + _PANEL_H + 4)}" stroke="#333333"/>')
            parts.append(f'<text x="{_fmt(x)}" y="{_fmt(self.y0 + _PANEL_H + 16)}" '
                         f'font-size="10" font-family="sans-serif" text-anchor="middle">{t:g}</text>')
        for t in _nice_ticks(self.y_lo, self.y_hi):
            y = self.py(t)
            parts.append(f'<line x1="{_fmt(_LEFT - 4)}" y1="{_fmt(y)}" '
                         f'x2="{_fmt(_LEFT)}" y2="{_fmt(y)}" stroke="#333333"/>')
            parts.append(f'<text x="{_fmt(_LEFT - 7)}" y="{_fmt(y + 3)}" font-size="10" '
                         f'font-family="sans-serif" text-anchor="end">{t:g}</text>')
        return parts

    def series(self, s: _Series) -> list[str]:
        pts = sorted(s.points)
        band_hi = [(self.px(m), self.py(v + _BAND_Z * e)) for m, v, e in pts]
        band_lo = [(self.px(m), self.py(v - _BAND_Z * e)) for m, v, e in reversed(pts)]
        band = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in band_hi + band_lo)
        line = " ".join(f"{_fmt(self.px(m))},{_fmt(self.py(v))}" for m, v, _ in pts)
        parts = []
        if len(pts) > 1:
            parts.append(f'<polygon points="{band}" fill="{s.color}" fill-opacity="0.15"/>')
            parts.append(f'<polyline points="{line}" fill="none" stroke="{s.color}" '
                         f'stroke-width="1.5"/>')
        parts.extend(
            _marker_svg(s.marker, self.px(m), self.py(v), s.color) for m, v, _ in pts
        )
        return parts


def _collect_series(summaries: list[dict], metric: str, per_kind: bool) -> list[_Series]:
    n_values = sorted({s["n_train"] for s in summaries})
    marker_of = {n: _MARKERS[i % len(_MARKERS)] for i, n in enumerate(n_values)}
    groups: dict[tuple, dict[float, tuple[float, float]]] = {}
    for s in summaries:
        key = (s["model"], s["score_kind"] if per_kind else None, s["n_train"])
        # accuracy is per (model, cell, seed), so every kind of a model carries
        # the same accuracy summary; the first is kept
        groups.setdefault(key, {}).setdefault(s["mu"], (s[f"{metric}_mean"], s[f"{metric}_sem"]))
    series = []
    for key in sorted(groups, key=str):
        model, kind, n_train = key
        points = [(mu, *groups[key][mu]) for mu in sorted(groups[key])]
        if per_kind:
            label = f"{model}/{kind} n={n_train}"
            color = _COLORS.get((model, kind), "#555555")
        else:
            label = f"{model} n={n_train}"
            color = _ACC_COLORS.get(model, "#555555")
        series.append(_Series(label=label, color=color,
                              marker=marker_of[n_train], points=points))
    return series


def render_figure(summaries: list[dict], d: int) -> str:
    """SVG text for one dimensionality column of the sweep figure."""
    rows = [s for s in summaries if s["d"] == d]
    if not rows:
        raise ValidationError(f"no result rows for d={d}")
    for axis in _SETTING_AXES:
        values = sorted({s[axis] for s in rows})
        if len(values) > 1:
            raise ValidationError(
                f"d={d}: results mix {axis} values {values}; plot one setting per figure")
    mus = sorted({s["mu"] for s in rows})
    x_range = (min(mus), max(mus))

    acc_series = _collect_series(rows, "accuracy", per_kind=False)
    adv_series = _collect_series(rows, "advantage", per_kind=True)

    def span(series_list):
        vals = []
        for s in series_list:
            for _, v, e in s.points:
                vals.extend((v - _BAND_Z * e, v + _BAND_Z * e))
        return min(vals), max(vals)

    a_lo, a_hi = span(acc_series)
    v_lo, v_hi = span(adv_series)
    pad = 0.02
    top = _Panel(_TOP, x_range, (a_lo - pad, a_hi + pad), f"test accuracy vs separation (d={d})")
    bottom = _Panel(_TOP + _PANEL_H + _GAP, x_range,
                    (min(v_lo - pad, 0.45), max(v_hi + pad, 0.55)),
                    f"membership advantage vs separation (d={d})")

    height = _TOP + 2 * _PANEL_H + _GAP + _BOTTOM
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}" '
        f'viewBox="0 0 {_W} {height}">',
        f'<rect x="0" y="0" width="{_W}" height="{height}" fill="#ffffff"/>',
    ]
    out.extend(top.frame(mus, "accuracy"))
    for s in acc_series:
        out.extend(top.series(s))
    out.extend(bottom.frame(mus, "advantage"))
    y_half = bottom.py(0.5)
    out.append(f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(y_half)}" x2="{_fmt(_W - _RIGHT)}" '
               f'y2="{_fmt(y_half)}" stroke="#888888" stroke-dasharray="5,4"/>')
    for s in adv_series:
        out.extend(bottom.series(s))

    for panel, series_list in ((top, acc_series), (bottom, adv_series)):
        ly = panel.y0 + 10
        for s in series_list:
            lx = _W - _RIGHT + 8
            out.append(_marker_svg(s.marker, lx + 4, ly - 3, s.color))
            out.append(f'<text x="{_fmt(lx + 12)}" y="{_fmt(ly)}" font-size="9" '
                       f'font-family="sans-serif" fill="#111111">{s.label}</text>')
            ly += 13

    out.append(f'<text x="{_fmt(_W / 2)}" y="{_fmt(_TOP + 2 * _PANEL_H + _GAP + 36)}" '
               f'font-size="12" font-family="sans-serif" text-anchor="middle">'
               f'class separation</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_sweep_figures(summaries: list[dict], out_dir: str,
                         prefix: str = "mu_trends") -> list[str]:
    """Write one SVG per dimensionality of ``harness.summarize`` rows; returns the paths."""
    if not summaries:
        raise ValidationError("no result rows to plot")
    # every figure is rendered, and so checked, before any file is written
    figures = {d: render_figure(summaries, d) for d in sorted({s["d"] for s in summaries})}
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for d, text in figures.items():
        path = os.path.join(out_dir, f"{prefix}_d{d}.svg")
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        paths.append(path)
    return paths
