"""Gradient-boosted regression trees with second-order split gains.

One boosting engine, two growth policies: depth_wise splits every node
level by level up to max_depth; leaf_wise repeatedly splits the highest-gain
leaf until num_leaves. Split search is exact greedy over sorted unique
values, each threshold the midpoint of two neighbours. max_bin caps the
candidates per node, like XGBoost's local proposals (section 3.2): a node's
column with more than max_bin distinct non-missing values is cut only at its
quantiles i / max_bin (i = 1 .. max_bin - 1) by numpy's linear rule, each
threshold the quantile value itself, and quantiles that fall between the
same two neighbouring values are merged into the first. LightGBM instead
bins each feature once per fit. Where a node's column holds both -0.0 and
0.0, a zero threshold's sign follows their stable sort order, which may
differ from np.quantile's; no comparison tells the two apart. As in XGBoost's
column blocks (Chen & Guestrin, KDD 2016, section 4.1), each column's rows
are sorted by value once per fit. Nodes are searched in batches: a whole
level for depth_wise, the two children of each split for leaf_wise. A
batch's nodes and feature columns form one padded (node, column, position)
block, with one stable sort by node, one prefix sum, and gains scored at
every candidate boundary. A node with fewer than twice the rows a child must
keep cannot split, so it becomes a leaf without a search. A NaN cell is a
missing value (section 3.4): it is routed to whichever side maximizes gain
and that default direction is stored per node, so missing cells are handled
natively at fit and predict time.

Squared-error objective: g_i = pred_i - y_i and h_i = 1, so hessian sums are
the row counts n. Split gain 0.5 * [GL^2/(n_L+lambda) + GR^2/(n_R+lambda) -
G^2/(n+lambda)] - gamma, with the leaf numerator soft-thresholded by reg_alpha;
leaf weight -soft(G, alpha) / (n + lambda). min_child_weight and
min_child_samples both bound a child's row count: each child keeps at least
max(min_child_weight, min_child_samples) rows.

A fitted forest is one node table, every tree's nodes in tree order, and
the node count of each tree. Child ids are local to their tree, so tree t
is the slice of its tree_sizes[t] rows, and the first k trees are the rows
of tree_sizes[:k].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import NoSplits, SchemaMismatch
from ..fields import check_field_types
from ..records import DesignMatrix


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (0.0 < self.subsample <= 1.0) or not (0.0 < self.colsample_bytree <= 1.0):
            raise ValueError("subsample and colsample_bytree must be in (0, 1]")
        if self.reg_alpha < 0 or self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("regularization terms must be >= 0")
        if self.min_child_weight < 0 or self.min_child_samples < 0:
            raise ValueError("min_child_weight and min_child_samples must be >= 0")
        if self.growth not in ("depth_wise", "leaf_wise"):
            raise ValueError(f"unknown growth policy {self.growth!r}")
        if self.growth == "leaf_wise" and (self.num_leaves is None or self.num_leaves < 2):
            raise ValueError("leaf_wise growth requires num_leaves >= 2")
        if self.growth == "depth_wise" and self.num_leaves is not None:
            raise ValueError("num_leaves only applies to leaf_wise growth")
        if self.max_bin is not None and self.max_bin < 2:
            raise ValueError("max_bin must be >= 2 when set")


# per default direction (missing cells left, then right): 1 where they join the left side; reversed, the right
_TO_LEFT = np.array([1, 0])

# A tree is one array of these, one row per node in id order, with feature -1
# marking a leaf, whose children are -1. Aligned, so predict's per-field
# gathers read naturally aligned values.
NODE_DTYPE = np.dtype(
    [("feature", np.int64), ("threshold", np.float64), ("default_left", np.bool_), ("left", np.int64),
     ("right", np.int64), ("weight", np.float64), ("gain", np.float64)],
    align=True,
)
NodeTable = np.ndarray  # of NODE_DTYPE


def make_tree(nodes: Sequence[tuple]) -> NodeTable:
    """A node table from node tuples ordered as the fields of NODE_DTYPE, with zeroed padding bytes.

    np.array and np.concatenate would leave the aligned dtype's padding
    unset, so equal tables could differ under tobytes().
    """
    table = np.zeros(len(nodes), dtype=NODE_DTYPE)
    table[:] = nodes
    return table


@dataclass
class GbtModel:
    """A forest: nodes holds every tree's nodes in tree order, tree_sizes the node count of each tree."""

    base_score: float
    nodes: NodeTable
    tree_sizes: list[int]
    feature_names: tuple[str, ...]
    params: GbtParams
    train_rmse: list[float] = field(default_factory=list)

    @property
    def trees(self) -> list[NodeTable]:
        """Each tree's view of nodes, its child ids local to it."""
        return np.split(self.nodes, np.cumsum(self.tree_sizes)[:-1]) if self.tree_sizes else []


def _soft(g: np.ndarray | float, alpha: float):
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _score(g, n, params: GbtParams):
    """soft(g, reg_alpha)^2 / (n + reg_lambda); the square drops soft's sign, so it is not applied."""
    s = np.maximum(np.abs(g) - params.reg_alpha, 0.0)
    return s * s / (n + params.reg_lambda)


@dataclass
class _Split:
    gain: float
    feature: int
    threshold: float
    default_left: bool
    left_rows: np.ndarray
    right_rows: np.ndarray


def _column_cells(X: np.ndarray, g: np.ndarray, by_value: np.ndarray, in_rows: np.ndarray, cols: Sequence[int]):
    """The cells of the rows in_rows marks, in each column of cols in value order, for _split_search.

    by_value holds every row of X in each column's value order, missing (NaN)
    cells last in row order. Returns (row ids, values, gradients): row ids
    are (column, position); values and gradients are flat in the same order
    and end in one padding cell, a NaN value with a zero gradient.
    """
    row_ids = by_value[cols]
    row_ids = row_ids[in_rows[row_ids]].reshape(len(cols), -1)
    return row_ids, np.append(X[row_ids, np.array(cols)[:, None]], np.nan), np.append(g[row_ids], 0.0)


def _bin(sv: np.ndarray, boundary: np.ndarray, n_nm: np.ndarray, max_bin: int) -> np.ndarray | None:
    """Cap the candidates of each (node, column) of the block with more than max_bin distinct values, in one pass.

    sv and n_nm are _split_search's: each (node, column)'s finite non-missing
    values sorted at the front of its positions, and their count n.
    boundary marks each position i whose cell is below the next. A capped
    pair keeps only the boundaries that its quantiles q = i / max_bin
    (i = 1 .. max_bin - 1) fall on, each by np.quantile's linear rule:
    virtual index (n - 1) * q between positions lower and lower + 1, with
    fraction t, and the lerp of their values lo and hi that takes
    lo + (hi - lo) * t below t = 0.5 and hi - (hi - lo) * (1 - t) from it.
    Its left count, the cells below it (np.searchsorted's side="left"), is
    lower + 1 where it exceeds lo and the start of lo's run of equal values
    otherwise. Quantiles that share a left count share a boundary, and the
    first of them is its threshold. A node's values sorted stably keep the
    order of -0.0 and 0.0 that np.quantile's partition may change, so a zero
    threshold's sign can differ from it, which no comparison sees.

    Updates boundary in place and returns the thresholds indexed like it,
    NaN at the boundaries that keep their midpoint; None, allocating nothing
    sized by max_bin, when no pair is capped.
    """
    b, c = np.nonzero(boundary.sum(axis=2) >= max_bin)  # more than max_bin distinct values
    if b.size == 0:
        return None
    values, n = sv[b, c], n_nm[b, c][:, None]  # (pair, position) and (pair, 1)
    index = (n - 1) * (np.arange(1, max_bin) / max_bin)  # (pair, quantile); q < 1, so index < n - 1
    lower = np.floor(index).astype(np.intp)
    flat = lower + np.arange(0, values.size, values.shape[1])[:, None]  # lower's index in values.ravel()
    t, lo, hi = index - lower, values.take(flat), values.take(flat + 1)
    q = np.where(t >= 0.5, hi - (hi - lo) * (1 - t), lo + (hi - lo) * t)
    run_start = np.zeros(values.shape, dtype=np.intp)  # the first position of each position's run of equal values
    run_start[:, 1:] = np.maximum.accumulate(np.arange(1, values.shape[1]) * boundary[b, c], axis=1)
    count = np.where(q > lo, lower + 1, run_start.take(flat))
    keep = count > 0  # a quantile is at most the largest value, so every count is below n
    keep[:, 1:] &= count[:, 1:] != count[:, :-1]  # count is nondecreasing, so this keeps the first at a position
    pair = np.nonzero(keep)[0]
    cuts = np.full(boundary.shape, np.nan)
    cuts[b[pair], c[pair], count[keep] - 1] = q[keep]
    boundary[b, c] = ~np.isnan(cuts[b, c])
    return cuts


def _split_search(
    X: np.ndarray, cells: tuple[np.ndarray, ...], batch: list[np.ndarray], cols: Sequence[int], params: GbtParams
) -> list[_Split | None]:
    """Exhaustive best split of each node in batch, a list of row sets, searched as one block.

    cells is _column_cells of rows that hold every node's. A node with fewer
    than 2 * max(min_child_weight, min_child_samples) rows, or fewer than 2,
    has no split that leaves both children that many, so it is not searched.
    The others share one (node, column, position) block. A stable sort of
    each column's cells by node keeps every node's cells in the order the
    node would sort them alone; they fill the front of its positions, and
    padding, keyed after its missing cells, fills the rest. So one cumsum
    along the positions gives every (node, column) the bits of a 1-D cumsum
    over its own sorted cells. Every boundary between distinct values is a
    candidate, for both default directions, and each node takes one flat
    argmax over its (column, direction, position) gains. Ties therefore break
    to the lowest feature index, then missing-to-left, then the lowest
    threshold. A node gets None when no split has a positive gain.
    """
    floor = max(params.min_child_weight, params.min_child_samples)  # rows each child keeps
    out: list[_Split | None] = [None] * len(batch)
    search = [i for i, rows in enumerate(batch) if rows.size >= max(2, 2 * floor)]
    if not search:
        return out
    row_ids, values, grads = cells
    nodes = [batch[i] for i in search]
    sizes = np.array([rows.size for rows in nodes])
    # every (node, column) ends in at least one padding cell
    (B, k), m = (len(nodes), len(cols)), int(sizes.max()) + 1
    node_of = np.full(X.shape[0], B, dtype=np.min_scalar_type(B))
    node_of[np.concatenate(nodes)] = np.repeat(np.arange(B), sizes)
    grouped = np.argsort(node_of[row_ids], axis=1, kind="stable")[:, : sizes.sum()]
    grouped += np.arange(0, row_ids.size, row_ids.shape[1])[:, None]
    at = np.full((B, k, m), row_ids.size)  # (node, column, position) -> index in the cells, the last one padding
    at.transpose(0, 2, 1)[np.arange(m) < sizes[:, None]] = grouped.T
    sv, sg = values.take(at), grads.take(at)
    missing = np.isnan(sv)  # the missing cells and the padding
    n_nm = missing.argmax(axis=2)  # the first missing or padding cell
    n_miss = sizes[:, None] - n_nm
    # zero gradients past the non-missing cells keep every prefix sum's bits, so each row ends on its total
    cum = np.cumsum(np.where(missing, 0.0, sg), axis=2)
    total = cum[:, :, -1]
    miss_sum = np.zeros((B, k))
    has_miss = np.nonzero(n_miss)
    for b, c in zip(*has_miss):
        # a 1-D sum, as a 2-D reduction over the padded block may add in another order
        miss_sum[b, c] = sg[b, c, n_nm[b, c] : sizes[b]].sum()

    # candidate i puts the first i + 1 sorted non-missing cells on the left
    cl = np.arange(1, m)
    boundary = sv[:, :, :-1] < sv[:, :, 1:]  # False next to a NaN cell
    # no (node, column) has more distinct values than the m - 1 rows of the largest node
    cuts = None if params.max_bin is None or params.max_bin >= m - 1 else _bin(sv, boundary, n_nm, params.max_bin)

    # Candidates are (node, column, direction, position) with floor rows on
    # each side: direction 0 sends the missing cells left, 1 sends them
    # right. A (node, column) without missing cells would tie direction 0,
    # which wins ties, so its direction 1 is not a candidate.
    valid = np.zeros((B, k, 2, m - 1), dtype=bool)
    valid[:, :, 0] = boundary & (cl >= (floor - n_miss)[:, :, None]) & (cl <= (n_nm - floor)[:, :, None])
    valid[has_miss + (1,)] = boundary[has_miss] & (cl >= floor) & (cl <= (sizes[has_miss[0]] - floor)[:, None])
    flat = np.flatnonzero(valid)
    bcd, i = np.divmod(flat, m - 1)
    bc, cl = bcd // 2, i + 1
    # Only candidates are scored, each side's hessian sum its row count. The
    # missing cells join one side per direction; adding 0.0 on the other
    # changes at most the sign of a zero, which the score does not see.
    cum_i = cum.take(bc * m + i)
    left = cum_i + (miss_sum[:, :, None] * _TO_LEFT).take(bcd)
    right = (total.take(bc) - cum_i) + (miss_sum[:, :, None] * _TO_LEFT[::-1]).take(bcd)
    count_l = cl + (n_miss[:, :, None] * _TO_LEFT).take(bcd)
    count_r = (n_nm[:, :, None] + n_miss[:, :, None] * _TO_LEFT[::-1]).take(bcd) - cl
    parent = _score(total + miss_sum, sizes[:, None], params).take(bc)
    gains = np.full((B, k * 2 * (m - 1)), -np.inf)
    gains.put(flat, 0.5 * (_score(left, count_l, params) + _score(right, count_r, params) - parent) - params.gamma)
    best = gains.argmax(axis=1)
    gain = gains[np.arange(B), best]
    best_c, direction, position = np.unravel_index(best, (k, 2, m - 1))
    for b in np.flatnonzero(gain > 0.0):
        rows, c, p = nodes[b], best_c[b], position[b]
        threshold = 0.5 * (sv[b, c, p] + sv[b, c, p + 1]) if cuts is None or np.isnan(cuts[b, c, p]) else cuts[b, c, p]
        default_left = bool(direction[b] == 0)
        left_rows, right_rows = _partition(X, rows, cols[c], threshold, default_left)
        out[search[b]] = _Split(float(gain[b]), cols[c], float(threshold), default_left, left_rows, right_rows)
    return out


def _partition(X: np.ndarray, rows: np.ndarray, feature: int, threshold: float, default_left: bool):
    """rows split into those a node sends left and those it sends right, each in row order."""
    v = X[rows, feature]
    go_left = np.where(np.isnan(v), default_left, v < threshold)
    return rows[go_left], rows[~go_left]


def _grow_tree(
    X: np.ndarray, g: np.ndarray, by_value: np.ndarray, in_rows: np.ndarray, cols: Sequence[int], params: GbtParams
) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """One tree grown on the rows in_rows marks; returns its node tuples in id order, every row of X, and the
    weight of each row's leaf.

    by_value holds X's rows in each column's value order (see _column_cells).
    depth_wise searches each level's nodes in one batch; leaf_wise searches
    each split's two children in one batch. The rows in_rows leaves out
    follow each split to their leaves. Node ids follow the order in which
    splits reserve their children's ids: depth first, left first, for
    depth_wise, and split order for leaf_wise.
    """
    cells = _column_cells(X, g, by_value, in_rows, cols)
    # by creation index: the root, then each split's two children; a node's path
    # is its turns from the root, 0 left and 1 right
    node_rows, out_rows, path = [np.flatnonzero(in_rows)], [np.flatnonzero(~in_rows)], [()]
    splits: dict[int, tuple[_Split, int]] = {}  # creation index -> (split, its left child's index)

    def split(i: int, s: _Split) -> list[int]:
        splits[i] = (s, len(node_rows))
        node_rows.extend((s.left_rows, s.right_rows))
        out_rows.extend(_partition(X, out_rows[i], s.feature, s.threshold, s.default_left))
        path.extend((path[i] + (0,), path[i] + (1,)))
        return [len(node_rows) - 2, len(node_rows) - 1]

    def search(nodes: list[int]) -> list[tuple[int, _Split]]:
        found = _split_search(X, cells, [node_rows[i] for i in nodes], cols, params)
        return [(i, s) for i, s in zip(nodes, found) if s is not None]

    order: list[int] = []  # split nodes, in the order they reserve their children's ids
    if params.growth == "depth_wise":
        level = [0]
        for _ in range(params.max_depth):
            level = [child for i, s in search(level) for child in split(i, s)]
        order = sorted(splits, key=path.__getitem__)  # depth first, left first: a path sorts before its extensions
    else:
        # leaf_wise: split the searched leaf with the highest gain, the first created on ties
        pending = dict(search([0]))
        while pending and len(order) + 1 < params.num_leaves:
            i = max(pending, key=lambda j: pending[j].gain)
            order.append(i)
            children = split(i, pending.pop(i))
            if len(path[i]) + 1 < params.max_depth and len(order) + 1 < params.num_leaves:
                pending.update(search(children))

    ids = {0: 0}  # creation index -> node id
    nodes = {}  # node id -> tuple in NODE_DTYPE field order
    for i in order:
        s, left = splits[i]
        ids[left], ids[left + 1] = len(ids), len(ids) + 1
        nodes[ids[i]] = (s.feature, s.threshold, s.default_left, ids[left], ids[left + 1], 0.0, s.gain)
    leaves = [i for i in ids if i not in splits]
    # -soft(G, alpha) / (n + lambda), each G a 1-D sum over the leaf's rows in row order
    g_sums, counts = np.array([[g[node_rows[i]].sum(), node_rows[i].size] for i in leaves]).T
    weights = -_soft(g_sums, params.reg_alpha) / (counts + params.reg_lambda)
    nodes.update((ids[i], (-1, 0.0, True, -1, -1, weight, 0.0)) for i, weight in zip(leaves, weights))
    rows = [np.concatenate((node_rows[i], out_rows[i])) for i in leaves]
    return [nodes[j] for j in range(len(nodes))], np.concatenate(rows), np.repeat(weights, [r.size for r in rows])


def tree_depth(tree: NodeTable) -> int:
    """The most splits on a path from the root to a leaf; a tree that is one leaf has depth 0.

    Every child's id exceeds its parent's (_grow_tree; the model file checks
    refuse any other tree), so one pass in id order reaches each node after
    all of its parents.
    """
    depth = [0] + [-1] * (len(tree) - 1)  # -1: no path from the root reaches the node
    for i, (feature, left, right) in enumerate(zip(*(tree[f].tolist() for f in ("feature", "left", "right")))):
        if feature >= 0 and depth[i] >= 0:
            depth[left] = max(depth[left], depth[i] + 1)
            depth[right] = max(depth[right], depth[i] + 1)
    return max(depth)


def _tree_predict(nodes: NodeTable, X: np.ndarray) -> np.ndarray:
    """Route all rows to their leaves, one level per pass; a NaN cell takes its node's default direction."""
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
    X, y = matrix.rows, matrix.training_targets()
    n, d = X.shape

    base = float(np.mean(y))
    pred = np.full(n, base, dtype=np.float64)
    rng = np.random.default_rng(params.seed)
    nodes, tree_sizes, train_rmse = [], [], []  # every tree's node tuples, each tree's node count

    n_sub = max(1, int(round(params.subsample * n)))
    n_cols = max(1, int(round(params.colsample_bytree * d)))
    by_value = np.argsort(X.T, axis=1, kind="stable")  # each column's rows in value order, missing cells last

    for _ in range(params.n_estimators):
        in_tree = np.zeros(n, dtype=bool)  # the tree's subsample of rows
        in_tree[slice(None) if n_sub >= n else rng.permutation(n)[:n_sub]] = True
        cols = list(range(d)) if n_cols >= d else sorted(rng.permutation(d)[:n_cols].tolist())
        g = pred - y
        tree, leaf_rows, weights = _grow_tree(X, g, by_value, in_tree, cols, params)
        nodes.extend(tree)
        tree_sizes.append(len(tree))
        pred[leaf_rows] += params.eta * weights
        train_rmse.append(float(np.sqrt(np.mean((pred - y) ** 2))))

    return GbtModel(base_score=base, nodes=make_tree(nodes), tree_sizes=tree_sizes,
                    feature_names=matrix.schema.columns, params=params, train_rmse=train_rmse)


def gbt_predict(model: GbtModel, matrix: DesignMatrix) -> np.ndarray:
    """base_score + eta * sum of routed leaf weights, missing cells following stored defaults."""
    matrix.schema.check_columns(model.feature_names)
    return predict_rows(model, matrix.rows)


def predict_rows(model: GbtModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.shape[1] != len(model.feature_names):
        raise SchemaMismatch(f"rows have {rows.shape[1]} columns, the model {len(model.feature_names)}")
    out = np.full(rows.shape[0], model.base_score, dtype=np.float64)
    eta = model.params.eta
    for tree in model.trees:
        out += eta * _tree_predict(tree, rows)
    return out


def gbt_gain_totals(model: GbtModel) -> dict[str, float]:
    """Total split gain per feature name, in feature order; a feature no node splits on is absent.

    Trees are visited in order, and each tree's split nodes in the order of
    their left child's id. The grower hands a split's two children the next
    two ids, so that is the order in which it made the splits, and each
    total is the float that a running sum kept during the fit would hold.
    """
    totals: dict[int, float] = {}
    for tree in model.trees:
        splits = np.sort(tree[tree["feature"] >= 0], order="left")
        for feature, gain in zip(splits["feature"].tolist(), splits["gain"].tolist()):
            totals[feature] = totals.get(feature, 0.0) + gain
    return {model.feature_names[f]: total for f, total in sorted(totals.items())}


def gbt_importance(model: GbtModel) -> dict[str, float]:
    """Total split gain per feature, normalized to sum to 1."""
    totals = gbt_gain_totals(model)
    total = math.fsum(totals.values())
    if not totals or total <= 0.0:
        raise NoSplits("model contains no internal nodes")
    return {name: value / total for name, value in totals.items()}
