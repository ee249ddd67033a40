"""Gradient-boosted regression trees with second-order split gains.

One boosting engine, two growth policies: depth_wise splits every node
level by level up to max_depth; leaf_wise repeatedly splits the highest-gain
leaf until num_leaves. Split search is exact greedy over sorted unique
values (optionally capped by quantile binning via max_bin). Missing values
are routed to whichever side maximizes gain and that default direction is
stored per node, so masked cells are handled natively at fit and predict
time.

Squared-error objective: g_i = pred_i - y_i, h_i = 1; split gain
0.5 * [GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)] - gamma, with
the leaf numerator soft-thresholded by reg_alpha; leaf weight
-soft(G, alpha) / (H + lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import EmptyTrainingSet, NoSplits, SchemaMismatch
from ..records import DesignMatrix


@dataclass(frozen=True)
class GbtParams:
    n_estimators: int = 100
    eta: float = 0.1
    min_child_weight: float = 1.0
    max_depth: int = 6
    gamma: float = 0.0
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    reg_alpha: float = 0.0
    reg_lambda: float = 1.0
    growth: str = "depth_wise"
    num_leaves: int | None = None
    min_child_samples: int = 1
    max_bin: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (0.0 < self.subsample <= 1.0) or not (0.0 < self.colsample_bytree <= 1.0):
            raise ValueError("subsample and colsample_bytree must be in (0, 1]")
        if self.reg_alpha < 0 or self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("regularization terms must be >= 0")
        if self.growth not in ("depth_wise", "leaf_wise"):
            raise ValueError(f"unknown growth policy {self.growth!r}")
        if self.growth == "leaf_wise" and (self.num_leaves is None or self.num_leaves < 2):
            raise ValueError("leaf_wise growth requires num_leaves >= 2")
        if self.growth == "depth_wise" and self.num_leaves is not None:
            raise ValueError("num_leaves only applies to leaf_wise growth")
        if self.max_bin is not None and self.max_bin < 2:
            raise ValueError("max_bin must be >= 2 when set")


# A tree is one array of these, one row per node in left-first id order, with
# feature -1 marking a leaf. Aligned, so predict's per-field gathers read
# naturally aligned values.
NODE_DTYPE = np.dtype(
    [("feature", np.int64), ("threshold", np.float64), ("default_left", np.bool_), ("left", np.int64),
     ("right", np.int64), ("weight", np.float64), ("gain", np.float64)],
    align=True,
)


def make_tree(nodes: Sequence[tuple]) -> np.recarray:
    """A tree from node tuples ordered as the fields of NODE_DTYPE."""
    return np.array(nodes, dtype=NODE_DTYPE).view(np.recarray)


@dataclass
class GbtModel:
    base_score: float
    eta: float
    trees: list[np.recarray]
    feature_names: tuple[str, ...]
    fingerprint: str
    params: GbtParams
    gain_totals: dict[str, float] = field(default_factory=dict)
    train_rmse: list[float] = field(default_factory=list)


def _soft(g: np.ndarray | float, alpha: float):
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _score(g, h, alpha: float, lam: float):
    s = _soft(g, alpha)
    return s * s / (h + lam)


@dataclass
class _Split:
    gain: float
    feature: int
    threshold: float
    default_left: bool
    left_rows: np.ndarray
    right_rows: np.ndarray


def _best_split(
    X: np.ndarray,
    M: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    cols: Sequence[int],
    params: GbtParams,
) -> _Split | None:
    """Exhaustive best split over the given rows and feature columns.

    Ties break to the lowest feature index, then the lowest threshold, then
    missing-to-left; achieved by scanning features in ascending order with a
    strict improvement test and taking the first argmax over ascending
    thresholds.
    """
    best: _Split | None = None
    alpha, lam = params.reg_alpha, params.reg_lambda
    g_rows = g[rows]
    h_rows = h[rows]
    for f in cols:
        v = X[rows, f]
        miss = M[rows, f]
        nm = ~miss
        vs = v[nm]
        if vs.size < 2:
            continue
        order = np.argsort(vs, kind="stable")
        sv = vs[order]
        sg = g_rows[nm][order]
        sh = h_rows[nm][order]
        cum_g = np.cumsum(sg)
        cum_h = np.cumsum(sh)
        g_nm, h_nm = cum_g[-1], cum_h[-1]
        g_miss = float(g_rows[miss].sum())
        h_miss = float(h_rows[miss].sum())
        n_miss = int(miss.sum())

        boundary = np.nonzero(sv[:-1] < sv[1:])[0]
        if boundary.size == 0:
            continue
        thresholds = 0.5 * (sv[boundary] + sv[boundary + 1])
        if params.max_bin is not None and boundary.size + 1 > params.max_bin:
            qs = np.quantile(vs, np.arange(1, params.max_bin) / params.max_bin)
            left_counts = np.searchsorted(sv, qs, side="left")
            keep = (left_counts > 0) & (left_counts < sv.size)
            # left_counts is nondecreasing, so this keeps the first quantile per position
            counts, first = np.unique(left_counts[keep], return_index=True)
            if counts.size == 0:
                continue
            boundary = counts - 1
            thresholds = qs[keep][first]

        gl = cum_g[boundary]
        hl = cum_h[boundary]
        cl = boundary + 1
        gr = g_nm - gl
        hr = h_nm - hl
        cr = vs.size - cl
        parent = _score(g_nm + g_miss, h_nm + h_miss, alpha, lam)

        for missing_left in (True, False):
            if missing_left:
                gl_d, hl_d, cl_d = gl + g_miss, hl + h_miss, cl + n_miss
                gr_d, hr_d, cr_d = gr, hr, cr
            else:
                gl_d, hl_d, cl_d = gl, hl, cl
                gr_d, hr_d, cr_d = gr + g_miss, hr + h_miss, cr + n_miss
            gains = 0.5 * (_score(gl_d, hl_d, alpha, lam) + _score(gr_d, hr_d, alpha, lam) - parent) - params.gamma
            valid = (
                (hl_d >= params.min_child_weight)
                & (hr_d >= params.min_child_weight)
                & (cl_d >= params.min_child_samples)
                & (cr_d >= params.min_child_samples)
            )
            if not valid.any():
                continue
            gains = np.where(valid, gains, -np.inf)
            j = int(np.argmax(gains))
            gain = float(gains[j])
            if gain <= 0.0:
                continue
            if best is None or gain > best.gain:
                thr = float(thresholds[j])
                go_left = np.where(miss, missing_left, v < thr)
                best = _Split(
                    gain=gain,
                    feature=f,
                    threshold=thr,
                    default_left=missing_left,
                    left_rows=rows[go_left],
                    right_rows=rows[~go_left],
                )
    return best


def _leaf_weight(g_sum: float, h_sum: float, params: GbtParams) -> float:
    return -float(_soft(g_sum, params.reg_alpha)) / (h_sum + params.reg_lambda)


def _grow_tree(
    X: np.ndarray,
    M: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    cols: Sequence[int],
    params: GbtParams,
    gain_out: dict[int, float],
) -> np.recarray:
    # node tuples in NODE_DTYPE field order; a split reserves its children's ids
    nodes: list[tuple | None] = [None]

    def make_leaf(node_id: int, node_rows: np.ndarray) -> None:
        weight = _leaf_weight(float(g[node_rows].sum()), float(h[node_rows].sum()), params)
        nodes[node_id] = (-1, 0.0, True, -1, -1, weight, 0.0)

    def apply_split(node_id: int, split: _Split) -> tuple[int, int]:
        left, right = len(nodes), len(nodes) + 1
        nodes[node_id] = (split.feature, split.threshold, split.default_left, left, right, 0.0, split.gain)
        nodes.extend((None, None))
        gain_out[split.feature] = gain_out.get(split.feature, 0.0) + split.gain
        return left, right

    if params.growth == "depth_wise":
        stack: list[tuple[int, np.ndarray, int]] = [(0, rows, 0)]
        while stack:
            node_id, node_rows, depth = stack.pop()
            split = _best_split(X, M, g, h, node_rows, cols, params) if depth < params.max_depth else None
            if split is None:
                make_leaf(node_id, node_rows)
                continue
            left_id, right_id = apply_split(node_id, split)
            # LIFO with right pushed first keeps node ids in left-first order
            stack.append((right_id, split.right_rows, depth + 1))
            stack.append((left_id, split.left_rows, depth + 1))
    else:
        # leaf_wise: repeatedly split the evaluated leaf with the highest gain
        frontier: list[tuple[int, np.ndarray, int, _Split | None]] = [
            (0, rows, 0, _best_split(X, M, g, h, rows, cols, params))
        ]
        n_leaves = 1
        while n_leaves < (params.num_leaves or 0):
            pick = -1
            for i, (_, _, _, split) in enumerate(frontier):
                if split is None:
                    continue
                if pick < 0 or split.gain > frontier[pick][3].gain:
                    pick = i
            if pick < 0:
                break
            node_id, _, depth, split = frontier.pop(pick)
            left_id, right_id = apply_split(node_id, split)
            for child_id, child_rows in ((left_id, split.left_rows), (right_id, split.right_rows)):
                child_split = (
                    _best_split(X, M, g, h, child_rows, cols, params) if depth + 1 < params.max_depth else None
                )
                frontier.append((child_id, child_rows, depth + 1, child_split))
            n_leaves += 1
        for node_id, node_rows, _, _ in frontier:
            make_leaf(node_id, node_rows)

    return make_tree(nodes)


def _tree_predict(tree: np.recarray, X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Route all rows to their leaves, moving every still-internal row one level per pass."""
    nodes = tree.view(np.ndarray)  # a recarray attribute lookup costs microseconds
    feature, threshold, default_left = nodes["feature"], nodes["threshold"], nodes["default_left"]
    # child[2 * node + go_left]; a leaf is its own child, so rows that reached one stay
    ids = np.arange(len(nodes))
    leaf = feature < 0
    child = np.stack((np.where(leaf, ids, nodes["right"]), np.where(leaf, ids, nodes["left"])), axis=1).ravel()
    n, d = X.shape
    x, m = X.ravel(), M.ravel()
    row_start = np.arange(n, dtype=np.intp) * d
    at = np.zeros(n, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        while True:
            f = feature.take(at)
            if not (f >= 0).any():
                return nodes["weight"].take(at)
            cell = row_start + f
            go_left = np.where(m.take(cell), default_left.take(at), x.take(cell) < threshold.take(at))
            at = child.take(2 * at + go_left)


def gbt_fit(matrix: DesignMatrix, params: GbtParams) -> GbtModel:
    """Fit a boosted forest on the design matrix, honoring its missing mask."""
    X, M, y = matrix.rows, matrix.missing_mask, matrix.targets
    n, d = X.shape
    if n == 0:
        raise EmptyTrainingSet("cannot fit on an empty design matrix")
    if not np.all(np.isfinite(y)):
        raise EmptyTrainingSet("targets must be finite")

    base = float(np.mean(y))
    pred = np.full(n, base, dtype=np.float64)
    rng = np.random.default_rng(params.seed)
    trees: list[np.recarray] = []
    gain_totals: dict[int, float] = {}
    train_rmse: list[float] = []

    n_sub = max(1, int(round(params.subsample * n)))
    n_cols = max(1, int(round(params.colsample_bytree * d)))

    for _ in range(params.n_estimators):
        rows = np.arange(n, dtype=np.intp) if n_sub >= n else np.sort(rng.permutation(n)[:n_sub])
        cols = list(range(d)) if n_cols >= d else sorted(rng.permutation(d)[:n_cols].tolist())
        g = pred - y
        h = np.ones(n, dtype=np.float64)
        tree = _grow_tree(X, M, g, h, rows, cols, params, gain_totals)
        trees.append(tree)
        pred += params.eta * _tree_predict(tree, X, M)
        train_rmse.append(float(np.sqrt(np.mean((pred - y) ** 2))))

    names = matrix.schema.columns
    return GbtModel(
        base_score=base,
        eta=params.eta,
        trees=trees,
        feature_names=names,
        fingerprint=matrix.schema.fingerprint(),
        params=params,
        gain_totals={names[f]: v for f, v in sorted(gain_totals.items())},
        train_rmse=train_rmse,
    )


def gbt_predict(model: GbtModel, matrix: DesignMatrix) -> np.ndarray:
    """base_score + eta * sum of routed leaf weights, missing cells following stored defaults."""
    if matrix.schema.fingerprint() != model.fingerprint:
        raise SchemaMismatch("design matrix schema does not match the fitted model")
    return predict_rows(model, matrix.rows, matrix.missing_mask)


def predict_rows(model: GbtModel, rows: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.shape[1] != len(model.feature_names):
        raise SchemaMismatch(f"rows have {rows.shape[1]} columns, the model {len(model.feature_names)}")
    if mask is None:
        mask = np.isnan(rows)
    out = np.full(rows.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        out += model.eta * _tree_predict(tree, rows, mask)
    return out


def gbt_importance(model: GbtModel) -> dict[str, float]:
    """Total split gain per feature, normalized to sum to 1."""
    total = math.fsum(model.gain_totals.values())
    if not model.gain_totals or total <= 0.0:
        raise NoSplits("model contains no internal nodes")
    return {name: value / total for name, value in model.gain_totals.items()}
