"""Analysis artifacts: summary tables, grouped RMSE breakdowns, scatter data.

Outputs are plain CSV/markdown data files with stable ordering and fixed
4-decimal float formatting; plotting is left to external tooling.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import TooFewPoints, ZeroVariance
from .experiments import ExperimentResult, rmse

_FMT = "{:.4f}"


@dataclass(frozen=True)
class ScatterPoint:
    record_id: str
    true: float
    pred: float
    language: str = ""
    joshi_class: int | None = None
    language_family: str = ""


# Points per block of the weighted sums, as (points, r) arrays of about this many cells.
_BLOCK_CELLS = 8192


def lowess(points: Sequence[tuple[float, float]], frac: float = 0.5) -> list[float]:
    """Locally weighted linear smoothing, one pass, tricube weights.

    For each x_i the r = ceil(frac * n) nearest points (by |x - x_i|, ties by
    x, then by index) form the neighborhood; distances are normalized by the
    largest one, dmax, and weighted by (1 - d^3)^3 before an ordinary weighted
    linear fit. Degenerate neighborhoods (zero spread or zero total weight)
    fall back to the neighborhood mean; when dmax is 0 that is the mean over
    the first r points with x equal to x_i, by index.

    The r nearest points of x_i are a contiguous window of the points sorted
    by (x, index) (Cleveland, JASA 1979), and the window moves right as x_i
    does, so one two-pointer pass over the sorted points finds every window
    and its dmax. The weighted sums are taken in window order over blocks of
    windows as (points, r) arrays, which makes the cost O(n * r) rather than
    one O(n log n) sort per point. They are moments of u = x - x_i, so the
    local line is fitted around x_i and its value there, the fitted value,
    keeps its digits however narrow the window is next to |x_i|.
    """
    if not (0.0 < frac <= 1.0):
        raise ValueError(f"frac {frac} outside (0, 1]")
    n = len(points)
    x = np.asarray([p[0] for p in points], dtype=np.float64)
    y = np.asarray([p[1] for p in points], dtype=np.float64)
    if n < 2 or np.unique(x).size < 2:
        raise TooFewPoints("lowess needs >= 2 points with distinct x")
    r = int(math.ceil(frac * n))
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]

    # Window p is xs[start[p]:start[p] + r]. It moves right while the point
    # just past it is strictly nearer than its first point, so it holds every
    # point nearer than its farthest one, and for a point with r or more ties
    # at distance 0 it is the first r of them.
    xl = xs.tolist()
    start = np.empty(n, dtype=np.intp)
    dmax = np.empty(n, dtype=np.float64)
    lo = 0
    for p, xp in enumerate(xl):
        while lo + r < n and xl[lo + r] - xp < xp - xl[lo]:
            lo += 1
        start[p] = lo
        dmax[p] = max(xp - xl[lo], xl[lo + r - 1] - xp)

    fitted = np.empty(n, dtype=np.float64)
    step = max(1, _BLOCK_CELLS // r)
    for b in range(0, n, step):
        block = slice(b, b + step)
        cols = start[block, None] + np.arange(r)
        u, yw = xs[cols] - xs[block, None], ys[cols]
        scale = dmax[block]
        flat_x = scale == 0.0
        w = (1.0 - (np.abs(u) / np.where(flat_x, 1.0, scale)[:, None]) ** 3) ** 3
        wu = w * u
        sw, su, sy = w.sum(axis=1), wu.sum(axis=1), (w * yw).sum(axis=1)
        suu, suy = (wu * u).sum(axis=1), (wu * yw).sum(axis=1)
        det = sw * suu - su * su
        singular = np.abs(det) <= 1e-12 * np.maximum(np.maximum(sw * suu, su * su), 1e-300)
        sw_safe = np.where(sw == 0.0, 1.0, sw)
        out = np.where(singular, sy / sw_safe, (sy * suu - su * suy) / np.where(singular, 1.0, det))
        mean = flat_x | (sw == 0.0)
        if mean.any():
            out[mean] = yw[mean].mean(axis=1)
        fitted[block] = out
    result = np.empty(n, dtype=np.float64)
    result[order] = fitted
    return result.tolist()


def r_squared(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """1 - SS_res / SS_tot; requires >= 2 targets with nonzero variance."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or t.size < 2:
        raise ZeroVariance("r_squared needs >= 2 aligned points")
    ss_tot = float(((t - t.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ZeroVariance("targets have zero variance")
    ss_res = float(((t - p) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def _grouped_rmse(points: Sequence[ScatterPoint], key) -> list[tuple[str, int, float]]:
    groups: dict[str, list[ScatterPoint]] = {}
    for p in points:
        groups.setdefault(key(p), []).append(p)
    rows = []
    for label in sorted(groups):
        members = groups[label]
        rows.append((label, len(members), rmse([m.pred for m in members], [m.true for m in members])))
    return rows


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None) -> None:
    """A header row then data rows, a cell quoted only when it holds a comma, quote or line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(
    results: Sequence[tuple[str, ExperimentResult]],
    out_dir: str,
    scatter: Sequence[ScatterPoint] | None = None,
    fmt: str = "markdown",
    lowess_frac: float = 0.5,
) -> None:
    """Write the report files into out_dir.

    summary.csv always; summary.md additionally when fmt="markdown";
    groups_joshi.csv / groups_family.csv / scatter.csv when scatter points
    are given; importance.csv when any result carries feature importances.
    """
    if not results:
        raise ValueError("no results to report")
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)

    rows = [
        (label, _FMT.format(res.mean_rmse), _FMT.format(res.std_rmse), len(res.per_repeat_rmse))
        for label, res in results
    ]
    _write_csv(os.path.join(out_dir, "summary.csv"), ("configuration", "mean_rmse", "std_rmse", "repeats"), rows)
    if fmt == "markdown":
        lines = [
            "| Configuration | RMSE (mean ± std) | Repeats |",
            "|---|---|---|",
        ]
        lines += [f"| {label} | {m} ± {s} | {k} |" for label, m, s, k in rows]
        _write_lines(os.path.join(out_dir, "summary.md"), lines)

    if scatter:
        joshi_rows = _grouped_rmse(scatter, lambda p: "unknown" if p.joshi_class is None else str(p.joshi_class))
        _write_csv(os.path.join(out_dir, "groups_joshi.csv"), ("joshi_class", "count", "rmse"),
                   [(g, c, _FMT.format(v)) for g, c, v in joshi_rows])
        family_rows = _grouped_rmse(scatter, lambda p: p.language_family or "unknown")
        _write_csv(os.path.join(out_dir, "groups_family.csv"), ("language_family", "count", "rmse"),
                   [(g, c, _FMT.format(v)) for g, c, v in family_rows])

        trues = [p.true for p in scatter]
        preds = [p.pred for p in scatter]
        try:
            smoothed = lowess(list(zip(trues, preds)), frac=lowess_frac)
        except TooFewPoints:
            smoothed = [float("nan")] * len(scatter)
        try:
            r2_text = _FMT.format(r_squared(preds, trues))
        except ZeroVariance:
            r2_text = "nan"
        _write_csv(
            os.path.join(out_dir, "scatter.csv"),
            ("record_id", "true", "pred", "lowess", "language", "joshi_class", "language_family"),
            (
                (p.record_id, _FMT.format(p.true), _FMT.format(p.pred), _FMT.format(s), p.language,
                 p.joshi_class, p.language_family)
                for p, s in zip(scatter, smoothed)
            ),
            comment=f"r_squared={r2_text} lowess_frac={_FMT.format(lowess_frac)}",
        )

    importance = next((res.importance for _, res in results if res.importance), None)
    if importance:
        ordered = sorted(importance.items(), key=lambda kv: (-kv[1], kv[0]))
        _write_csv(os.path.join(out_dir, "importance.csv"), ("feature", "importance"),
                   [(name, _FMT.format(value)) for name, value in ordered])
