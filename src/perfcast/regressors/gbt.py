"""Gradient-boosted regression trees with second-order split gains.

One boosting engine, two growth policies: depth_wise splits every node
level by level up to max_depth; leaf_wise repeatedly splits the highest-gain
leaf until num_leaves. Split search is exact greedy over sorted unique
values (optionally capped by quantile binning via max_bin). It scans a
node's feature columns together as one (column, row) block, in the spirit of
XGBoost's column blocks (Chen & Guestrin, KDD 2016, section 4.1): one sort,
one prefix sum and one gain array for all columns, with the block sorted
afresh at every node. A NaN cell is a missing value (section 3.4): it is
routed to whichever side maximizes gain and that default direction is stored
per node, so missing cells are handled natively at fit and predict time.

Squared-error objective: g_i = pred_i - y_i and h_i = 1, so hessian sums are
the row counts n. Split gain 0.5 * [GL^2/(n_L+lambda) + GR^2/(n_R+lambda) -
G^2/(n+lambda)] - gamma, with the leaf numerator soft-thresholded by reg_alpha;
leaf weight -soft(G, alpha) / (n + lambda). min_child_weight and
min_child_samples both bound a child's row count: each child keeps at least
max(min_child_weight, min_child_samples) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import EmptyTrainingSet, NoSplits, SchemaMismatch
from ..records import DesignMatrix, check_field_types


@dataclass(frozen=True)
class GbtParams:
    """Booster settings; min_child_weight and min_child_samples both bound a child's row count."""

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
        check_field_types(self)
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
    """A tree from node tuples ordered as the fields of NODE_DTYPE, with zeroed padding bytes.

    np.array would leave the aligned dtype's padding uninitialized, so equal
    trees could differ under tobytes().
    """
    tree = np.zeros(len(nodes), dtype=NODE_DTYPE)
    tree[:] = nodes
    return tree.view(np.recarray)


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


def _score(g, n, alpha: float, lam: float):
    s = _soft(g, alpha)
    return s * s / (n + lam)


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
    g: np.ndarray,
    rows: np.ndarray,
    cols: Sequence[int],
    params: GbtParams,
) -> _Split | None:
    """Exhaustive best split over the given rows and feature columns.

    All columns are scanned at once as a (column, row) block: each column is
    sorted with its missing (NaN) cells last, the gains of every boundary between
    distinct values are computed for both default directions in one
    (column, direction, position) array, and one flat argmax picks the
    winner. Ties therefore break to the lowest feature index, then
    missing-to-left, then the lowest threshold. Returns None when no split
    has a positive gain.
    """
    n, k = rows.size, len(cols)
    if n < 2:
        return None
    alpha, lam = params.reg_alpha, params.reg_lambda
    g_rows = g[rows]
    values = X[rows[:, None], cols].T
    miss = np.isnan(values)
    # NaN sorts after every value, so each column's missing cells come last, in row order
    order = np.argsort(values, axis=1, kind="stable")
    ids = np.arange(k)
    sv = values[ids[:, None], order]
    # (column, sorted position); cumsum is sequential, so each column's
    # prefix sums have the bits of a 1-D cumsum over its sorted cells
    cum = np.cumsum(g_rows[order], axis=1)
    n_miss = miss.sum(axis=1)
    n_nm = n - n_miss
    total = cum[ids, n_nm - 1]
    miss_sum = np.zeros(k)
    for c in np.flatnonzero(n_miss):
        # a 1-D sum, as a 2-D reduction may add in another order
        miss_sum[c] = g_rows[miss[c]].sum()

    # candidate i puts the first i + 1 sorted non-missing cells on the left
    cl = np.arange(1, n)
    boundary = (sv[:, :-1] < sv[:, 1:]) & (cl < n_nm[:, None])
    thresholds = 0.5 * (sv[:, :-1] + sv[:, 1:])
    if params.max_bin is not None:
        for c in np.flatnonzero(boundary.sum(axis=1) + 1 > params.max_bin):
            vs = sv[c, : n_nm[c]]
            qs = np.quantile(vs, np.arange(1, params.max_bin) / params.max_bin)
            left_counts = np.searchsorted(vs, qs, side="left")
            keep = (left_counts > 0) & (left_counts < vs.size)
            # left_counts is nondecreasing, so this keeps the first quantile per position
            counts, first = np.unique(left_counts[keep], return_index=True)
            boundary[c] = False
            boundary[c, counts - 1] = True
            thresholds[c, counts - 1] = qs[keep][first]

    # Both sides gain a direction axis, (column, direction, position):
    # direction 0 sends the missing cells left, 1 sends them right. Adding
    # 0.0 on the side they skip changes at most the sign of a zero, which
    # the score does not see. Each side's hessian sum is its row count.
    to_left = np.array([[1], [0]])
    to_right = to_left[::-1]
    left = cum[:, None, :-1] + miss_sum[:, None, None] * to_left
    right = (total[:, None] - cum[:, :-1])[:, None, :] + miss_sum[:, None, None] * to_right
    count_l = cl + n_miss[:, None, None] * to_left
    count_r = (n_nm[:, None] - cl)[:, None, :] + n_miss[:, None, None] * to_right
    parent = _score(total + miss_sum, n, alpha, lam)[:, None, None]
    # positions past a column's last non-missing cell hold 0/0 when reg_lambda is 0; they are set to -inf below
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (_score(left, count_l, alpha, lam) + _score(right, count_r, alpha, lam) - parent) - params.gamma
    floor = max(params.min_child_weight, params.min_child_samples)
    valid = boundary[:, None, :] & (count_l >= floor) & (count_r >= floor)
    gains = np.where(valid, gains, -np.inf)
    c, direction, i = np.unravel_index(np.argmax(gains), gains.shape)
    gain = float(gains[c, direction, i])
    if gain <= 0.0:
        return None
    threshold = float(thresholds[c, i])
    default_left = bool(direction == 0)
    go_left = np.where(miss[c], default_left, values[c] < threshold)
    return _Split(
        gain=gain,
        feature=cols[c],
        threshold=threshold,
        default_left=default_left,
        left_rows=rows[go_left],
        right_rows=rows[~go_left],
    )


def _leaf_weight(g_sum: float, n: int, params: GbtParams) -> float:
    return -float(_soft(g_sum, params.reg_alpha)) / (n + params.reg_lambda)


def _grow_tree(
    X: np.ndarray,
    g: np.ndarray,
    rows: np.ndarray,
    cols: Sequence[int],
    params: GbtParams,
    gain_out: dict[int, float],
) -> np.recarray:
    # node tuples in NODE_DTYPE field order; a split reserves its children's ids
    nodes: list[tuple | None] = [None]

    def make_leaf(node_id: int, node_rows: np.ndarray) -> None:
        weight = _leaf_weight(float(g[node_rows].sum()), node_rows.size, params)
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
            split = _best_split(X, g, node_rows, cols, params) if depth < params.max_depth else None
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
            (0, rows, 0, _best_split(X, g, rows, cols, params))
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
                    _best_split(X, g, child_rows, cols, params) if depth + 1 < params.max_depth else None
                )
                frontier.append((child_id, child_rows, depth + 1, child_split))
            n_leaves += 1
        for node_id, node_rows, _, _ in frontier:
            make_leaf(node_id, node_rows)

    return make_tree(nodes)


def _tree_predict(tree: np.recarray, X: np.ndarray) -> np.ndarray:
    """Route all rows to their leaves, one level per pass; a NaN cell takes its node's default direction."""
    nodes = tree.view(np.ndarray)  # a recarray attribute lookup costs microseconds
    feature, threshold, default_left = nodes["feature"], nodes["threshold"], nodes["default_left"]
    # child[2 * node + go_left]; a leaf is its own child, so rows that reached one stay
    ids = np.arange(len(nodes))
    leaf = feature < 0
    child = np.stack((np.where(leaf, ids, nodes["right"]), np.where(leaf, ids, nodes["left"])), axis=1).ravel()
    n, d = X.shape
    x = X.ravel()
    row_start = np.arange(n, dtype=np.intp) * d
    at = np.zeros(n, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        while True:
            f = feature.take(at)
            if not (f >= 0).any():
                return nodes["weight"].take(at)
            cell = x.take(row_start + f)
            go_left = np.where(np.isnan(cell), default_left.take(at), cell < threshold.take(at))
            at = child.take(2 * at + go_left)


def gbt_fit(matrix: DesignMatrix, params: GbtParams) -> GbtModel:
    """Fit a boosted forest on the design matrix, its NaN cells taken as missing."""
    X, y = matrix.rows, matrix.targets
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
        tree = _grow_tree(X, g, rows, cols, params, gain_totals)
        trees.append(tree)
        pred += params.eta * _tree_predict(tree, X)
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
    return predict_rows(model, matrix.rows)


def predict_rows(model: GbtModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.shape[1] != len(model.feature_names):
        raise SchemaMismatch(f"rows have {rows.shape[1]} columns, the model {len(model.feature_names)}")
    out = np.full(rows.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        out += model.eta * _tree_predict(tree, rows)
    return out


def gbt_importance(model: GbtModel) -> dict[str, float]:
    """Total split gain per feature, normalized to sum to 1."""
    total = math.fsum(model.gain_totals.values())
    if not model.gain_totals or total <= 0.0:
        raise NoSplits("model contains no internal nodes")
    return {name: value / total for name, value in model.gain_totals.items()}
