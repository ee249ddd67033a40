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


@dataclass(frozen=True)
class ScatterSeries:
    points: tuple[ScatterPoint, ...]


# Points per block of the weighted sums, as (points, r) arrays of about this many cells.
_BLOCK_CELLS = 8192


def lowess(points: Sequence[tuple[float, float]], frac: float = 0.5) -> list[float]:
    """Locally weighted linear smoothing, one pass, tricube weights.

    For each x_i the r = ceil(frac * n) nearest points (by |x - x_i|, ties by
    index) form the neighborhood; distances are normalized by the largest
    one, dmax, and weighted by (1 - d^3)^3 before an ordinary weighted linear
    fit. Degenerate neighborhoods (zero spread or zero total weight) fall back
    to the neighborhood mean; when dmax is 0 that is the mean over the first r
    points with x equal to x_i, by index.

    The r nearest points of x_i are a contiguous window of the points sorted
    by (x, index) (Cleveland, JASA 1979), and the window moves right as x_i
    does, so one two-pointer pass over the sorted points finds every window
    and its dmax. Points at distance dmax weigh exactly 0, so which of them a
    window holds changes no sum. The weighted sums are taken over blocks of
    windows as (points, r) arrays, which makes the cost O(n * r) rather than
    one O(n log n) sort per point. Each window is put in (distance, index)
    order before it is summed, the order of a full sort per point, so the
    fitted values are the same to the bit.
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
    window = np.arange(r)
    step = max(1, _BLOCK_CELLS // r)
    for b in range(0, n, step):
        block = slice(b, b + step)
        xp = xs[block]
        cols, d = _by_distance_then_index(xs, xp, start[block, None], window, order)
        xw, yw = xs[cols], ys[cols]
        scale = dmax[block]
        flat_x = scale == 0.0
        w = (1.0 - (d / np.where(flat_x, 1.0, scale)[:, None]) ** 3) ** 3
        sw = w.sum(axis=1)
        sx = (w * xw).sum(axis=1)
        sy = (w * yw).sum(axis=1)
        sxx = (w * xw * xw).sum(axis=1)
        sxy = (w * xw * yw).sum(axis=1)
        det = sw * sxx - sx * sx
        singular = np.abs(det) <= 1e-12 * np.maximum(np.maximum(sw * sxx, sx * sx), 1e-300)
        sw_safe = np.where(sw == 0.0, 1.0, sw)
        slope = (sw * sxy - sx * sy) / np.where(singular, 1.0, det)
        intercept = (sy - slope * sx) / sw_safe
        out = np.where(singular, sy / sw_safe, intercept + slope * xp)
        mean = flat_x | (sw == 0.0)
        if mean.any():
            out[mean] = yw[mean].mean(axis=1)
        fitted[block] = out
    result = np.empty(n, dtype=np.float64)
    result[order] = fitted
    return result.tolist()


def _by_distance_then_index(xs: np.ndarray, xp: np.ndarray, first: np.ndarray, window: np.ndarray,
                            index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The windows xs[first + window] as positions ordered by (|xs - xp|, index of the position), and those distances.

    Distance falls then rises along a window of sorted xs, so a stable sort by
    it is a cheap merge that leaves equal distances in x order; where a row has
    equal distances, a second sort by (distance rank, index) puts them in
    index order.
    """
    cols = first + np.argsort(np.abs(xs[first + window] - xp[:, None]), axis=1, kind="stable")
    d = np.abs(xs[cols] - xp[:, None])
    if (d[:, 1:] == d[:, :-1]).any():
        key = np.zeros(d.shape, dtype=np.int64)
        np.cumsum(d[:, 1:] != d[:, :-1], axis=1, out=key[:, 1:])
        key *= len(xs)
        key += index[cols]
        cols = np.take_along_axis(cols, np.argsort(key, axis=1, kind="stable"), axis=1)
        d = np.abs(xs[cols] - xp[:, None])
    return cols, d


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


def scatter_from_predictions(
    predictions: Sequence[tuple[str, float, float]],
    record_info: dict[str, tuple[str, int | None, str]] | None = None,
) -> ScatterSeries:
    """Attach (language, joshi_class, family) labels, keyed by record_id."""
    info = record_info or {}
    pts = []
    for rid, true, pred in predictions:
        language, joshi, family = info.get(rid, ("", None, ""))
        pts.append(ScatterPoint(rid, true, pred, language, joshi, family))
    return ScatterSeries(points=tuple(pts))


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
    scatter: ScatterSeries | None = None,
    fmt: str = "markdown",
    lowess_frac: float = 0.5,
) -> list[str]:
    """Write the report files into out_dir and return their paths.

    summary.csv always; summary.md additionally when fmt="markdown";
    groups_joshi.csv / groups_family.csv / scatter.csv when scatter data is
    given; importance.csv when any result carries feature importances.
    """
    if not results:
        raise ValueError("no results to report")
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    rows = [
        (label, _FMT.format(res.mean_rmse), _FMT.format(res.std_rmse), len(res.per_repeat_rmse))
        for label, res in results
    ]
    path = os.path.join(out_dir, "summary.csv")
    _write_csv(path, ("configuration", "mean_rmse", "std_rmse", "repeats"), rows)
    written.append(path)
    if fmt == "markdown":
        path = os.path.join(out_dir, "summary.md")
        lines = [
            "| Configuration | RMSE (mean ± std) | Repeats |",
            "|---|---|---|",
        ]
        lines += [f"| {label} | {m} ± {s} | {k} |" for label, m, s, k in rows]
        _write_lines(path, lines)
        written.append(path)

    if scatter is not None and scatter.points:
        pts = scatter.points
        path = os.path.join(out_dir, "groups_joshi.csv")
        joshi_rows = _grouped_rmse(pts, lambda p: "unknown" if p.joshi_class is None else str(p.joshi_class))
        _write_csv(path, ("joshi_class", "count", "rmse"), [(g, c, _FMT.format(v)) for g, c, v in joshi_rows])
        written.append(path)

        path = os.path.join(out_dir, "groups_family.csv")
        family_rows = _grouped_rmse(pts, lambda p: p.language_family or "unknown")
        _write_csv(path, ("language_family", "count", "rmse"), [(g, c, _FMT.format(v)) for g, c, v in family_rows])
        written.append(path)

        trues = [p.true for p in pts]
        preds = [p.pred for p in pts]
        try:
            smoothed = lowess(list(zip(trues, preds)), frac=lowess_frac)
        except TooFewPoints:
            smoothed = [float("nan")] * len(pts)
        try:
            r2_text = _FMT.format(r_squared(preds, trues))
        except ZeroVariance:
            r2_text = "nan"
        path = os.path.join(out_dir, "scatter.csv")
        _write_csv(
            path,
            ("record_id", "true", "pred", "lowess", "language", "joshi_class", "language_family"),
            (
                (p.record_id, _FMT.format(p.true), _FMT.format(p.pred), _FMT.format(s), p.language,
                 p.joshi_class, p.language_family)
                for p, s in zip(pts, smoothed)
            ),
            comment=f"r_squared={r2_text} lowess_frac={_FMT.format(lowess_frac)}",
        )
        written.append(path)

    importance = next((res.importance for _, res in results if res.importance), None)
    if importance:
        path = os.path.join(out_dir, "importance.csv")
        ordered = sorted(importance.items(), key=lambda kv: (-kv[1], kv[0]))
        _write_csv(path, ("feature", "importance"), [(name, _FMT.format(value)) for name, value in ordered])
        written.append(path)

    return written
