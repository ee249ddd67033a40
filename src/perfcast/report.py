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


def lowess(points: Sequence[tuple[float, float]], frac: float = 0.5) -> list[float]:
    """Locally weighted linear smoothing, one pass, tricube weights.

    For each x_i the ceil(frac * n) nearest points (by |x - x_i|, ties by
    index) form the neighborhood; distances are normalized by the largest
    one and weighted by (1 - d^3)^3 before an ordinary weighted linear fit.
    Degenerate neighborhoods (zero spread or zero total weight) fall back to
    the neighborhood mean.
    """
    if not (0.0 < frac <= 1.0):
        raise ValueError(f"frac {frac} outside (0, 1]")
    n = len(points)
    x = np.asarray([p[0] for p in points], dtype=np.float64)
    y = np.asarray([p[1] for p in points], dtype=np.float64)
    if n < 2 or np.unique(x).size < 2:
        raise TooFewPoints("lowess needs >= 2 points with distinct x")
    r = int(math.ceil(frac * n))
    fitted = np.empty(n, dtype=np.float64)
    for i in range(n):
        d = np.abs(x - x[i])
        order = np.lexsort((np.arange(n), d))[:r]
        dn = d[order]
        dmax = dn[-1] if dn.size else 0.0
        if dmax == 0.0:
            fitted[i] = float(np.mean(y[order]))
            continue
        w = (1.0 - (dn / dmax) ** 3) ** 3
        sw = float(w.sum())
        if sw == 0.0:
            fitted[i] = float(np.mean(y[order]))
            continue
        xs, ys = x[order], y[order]
        sx = float((w * xs).sum())
        sy = float((w * ys).sum())
        sxx = float((w * xs * xs).sum())
        sxy = float((w * xs * ys).sum())
        det = sw * sxx - sx * sx
        if abs(det) <= 1e-12 * max(sw * sxx, sx * sx, 1e-300):
            fitted[i] = sy / sw
            continue
        slope = (sw * sxy - sx * sy) / det
        intercept = (sy - slope * sx) / sw
        fitted[i] = intercept + slope * x[i]
    return fitted.tolist()


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
