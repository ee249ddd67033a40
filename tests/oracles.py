"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's code paths: plain loops, sets,
math.log2, explicit normal equations, exhaustive split enumeration. Expected
values asserted in the tests are computed here (or frozen from here).
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from perfcast.corpus import DATASET_FEATURE_COLUMNS, DatasetFeatureBlock, embedding_cosine, tokenize
from perfcast.errors import open_text
from perfcast.errors import (
    DegenerateSplit,
    MissingFeature,
    MissingPair,
    ParseError,
    RangeError,
    SchemaMismatch,
    TooFewLanguages,
    TooFewPoints,
    TooFewRecords,
)
from perfcast.experiments import (
    CvResult,
    ExperimentConfig,
    ExperimentResult,
    _filtered_records,
    _params_dict,
    kfold_indices,
    rmse,
)
from perfcast.langdist import DISTANCE_KINDS, language_features
from perfcast.records import (
    _BASE_COLUMNS,
    CORPUS_GROUPS,
    METRIC_RANGES,
    PROXY_PREFIX,
    TASKS,
    DesignMatrix,
    PerformanceRecord,
    build_design_matrix,
    build_schema,
    proxy_roster,
)
from perfcast.regressors import GbtModel, check_languages, fit_model, gbt_gain_totals, predict_model, with_seed
from perfcast.regressors.gbt import GbtParams, _tree_predict, make_tree


def oracle_profile(tokens_per_sentence):
    counts = Counter()
    for sent in tokens_per_sentence:
        for tok in sent:
            counts[tok] += 1
    total = sum(counts.values())
    return {
        "num_sentences": len(tokens_per_sentence),
        "total_tokens": total,
        "vocab_size": len(counts),
        "avg_sentence_length": total / len(tokens_per_sentence),
        "ttr": len(counts) / total,
        "counts": dict(counts),
    }


def oracle_word_overlap(counts1: dict, counts2: dict) -> float:
    t1, t2 = set(counts1), set(counts2)
    return len(t1 & t2) / (len(t1) + len(t2))


def oracle_ttr_distance(ttr1: float, ttr2: float) -> float:
    return (1.0 - ttr1 / ttr2) ** 2


def oracle_jsd(counts1: dict, counts2: dict) -> float:
    n1 = sum(counts1.values())
    n2 = sum(counts2.values())
    vocab = set(counts1) | set(counts2)
    kl1 = 0.0
    kl2 = 0.0
    for tok in vocab:
        p = counts1.get(tok, 0) / n1
        q = counts2.get(tok, 0) / n2
        m = (p + q) / 2.0
        if p > 0:
            kl1 += p * math.log2(p / m)
        if q > 0:
            kl2 += q * math.log2(q / m)
    return (kl1 + kl2) / 2.0


def oracle_tfidf_cosine(counts1: dict, counts2: dict) -> float:
    vocab = sorted(set(counts1) | set(counts2))
    v1, v2 = [], []
    for tok in vocab:
        df = (tok in counts1) + (tok in counts2)
        idf = math.log((1 + 2) / (1 + df)) + 1.0
        v1.append(counts1.get(tok, 0) * idf)
        v2.append(counts2.get(tok, 0) * idf)
    dot = sum(a * b for a, b in zip(v1, v2))
    n1 = math.sqrt(sum(a * a for a in v1))
    n2 = math.sqrt(sum(b * b for b in v2))
    return dot / (n1 * n2)


def oracle_read_corpus(path: str, mode: str = "unicode_words") -> list[list[str]]:
    """The former per-line corpus reader: one token list per line that file iteration yields."""
    with open_text(path) as fh:
        return [tokenize(line.rstrip("\n"), mode) for line in fh]


def oracle_sorted_jsd(probs1: dict, probs2: dict) -> float:
    """Base-2 JSD of two probability maps, clamped to [0, 1]: the former library loop over the sorted union.

    Unlike oracle_jsd, this adds in sorted-token order, so it is the bit-for-bit reference.
    """
    vocab = sorted(probs1.keys() | probs2.keys())
    kl_p = 0.0
    kl_q = 0.0
    for tok in vocab:
        pv = probs1.get(tok, 0.0)
        qv = probs2.get(tok, 0.0)
        m = 0.5 * (pv + qv)
        if pv > 0.0:
            kl_p += pv * math.log2(pv / m)
        if qv > 0.0:
            kl_q += qv * math.log2(qv / m)
    return min(1.0, max(0.0, 0.5 * (kl_p + kl_q)))


def oracle_sorted_tfidf_cosine(counts1: dict, counts2: dict) -> float:
    """TF-IDF cosine of two count maps: the former library loop over the sorted union, the bit-for-bit reference."""
    vocab = sorted(counts1.keys() | counts2.keys())
    dot = 0.0
    norm1 = 0.0
    norm2 = 0.0
    for tok in vocab:
        c1 = counts1.get(tok, 0)
        c2 = counts2.get(tok, 0)
        df = (c1 > 0) + (c2 > 0)
        idf = math.log(3.0 / (1.0 + df)) + 1.0
        v1 = c1 * idf
        v2 = c2 * idf
        dot += v1 * v2
        norm1 += v1 * v1
        norm2 += v2 * v2
    return dot / math.sqrt(norm1 * norm2)


def oracle_dataset_features(train_sentences, test_sentences, embeddings=None) -> DatasetFeatureBlock:
    """The feature block of two tokenized corpora from the former per-pair dict loops.

    The embedding cosine is the library's own numpy formula, which the
    token statistics do not touch.
    """
    o1, o2 = oracle_profile(train_sentences), oracle_profile(test_sentences)
    c1, c2 = o1["counts"], o2["counts"]
    return DatasetFeatureBlock(
        train_size=o1["num_sentences"],
        vocab_size_train=o1["vocab_size"],
        avg_sentence_length_train=o1["avg_sentence_length"],
        word_overlap=oracle_word_overlap(c1, c2),
        ttr_train=o1["ttr"],
        ttr_test=o2["ttr"],
        ttr_distance=oracle_ttr_distance(o1["ttr"], o2["ttr"]),
        jsd=oracle_sorted_jsd({t: c / o1["total_tokens"] for t, c in c1.items()},
                              {t: c / o2["total_tokens"] for t, c in c2.items()}),
        tfidf_cosine=oracle_sorted_tfidf_cosine(c1, c2),
        embedding_cosine=embedding_cosine(*embeddings) if embeddings is not None else None,
    )


def oracle_cosine(a, b) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def oracle_rmse(pred, true) -> float:
    acc = 0.0
    for p, t in zip(pred, true):
        acc += (p - t) ** 2
    return math.sqrt(acc / len(pred))


def oracle_best_depth1_split(X: np.ndarray, y: np.ndarray):
    """Exhaustive (feature, midpoint threshold) minimizing total SSE.

    Tie-break mirrors the library: scan features ascending, thresholds
    ascending, keep the first strict improvement.
    """
    best = None  # (sse_reduction, feature, threshold)
    n, d = X.shape
    sse_parent = float(((y - y.mean()) ** 2).sum())
    for f in range(d):
        values = np.unique(X[:, f])
        for i in range(len(values) - 1):
            thr = 0.5 * (values[i] + values[i + 1])
            left = X[:, f] < thr
            yl, yr = y[left], y[~left]
            sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
            reduction = sse_parent - sse
            if best is None or reduction > best[0]:
                best = (reduction, f, thr)
    return best


def oracle_best_split(X, M, g, h, rows, cols, params):
    """GBT split search one feature column at a time; None when no split has a positive gain.

    Each column's non-missing cells are argsorted on their own and every
    boundary is scored for missing-left, then missing-right. Ties break to
    the lowest feature index, then missing-to-left, then the lowest
    threshold: features and directions are scanned in that order with a
    strict improvement test, taking the first argmax over ascending
    thresholds.
    """

    def score(g, h):
        s = np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)
        return s * s / (h + lam)

    best = None
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
        parent = score(g_nm + g_miss, h_nm + h_miss)

        for missing_left in (True, False):
            if missing_left:
                gl_d, hl_d, cl_d = gl + g_miss, hl + h_miss, cl + n_miss
                gr_d, hr_d, cr_d = gr, hr, cr
            else:
                gl_d, hl_d, cl_d = gl, hl, cl
                gr_d, hr_d, cr_d = gr + g_miss, hr + h_miss, cr + n_miss
            gains = 0.5 * (score(gl_d, hl_d) + score(gr_d, hr_d) - parent) - params.gamma
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
            if best is None or gain > best["gain"]:
                thr = float(thresholds[j])
                go_left = np.where(miss, missing_left, v < thr)
                best = dict(
                    gain=gain,
                    feature=f,
                    threshold=thr,
                    default_left=missing_left,
                    left_rows=rows[go_left],
                    right_rows=rows[~go_left],
                )
    return best


# The per-node GBT split search and grower that the level-batched ones replaced, with the
# helpers they called, kept as written.


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


def _leaf_weight(g_sum: float, n: int, params: GbtParams) -> float:
    return -float(_soft(g_sum, params.reg_alpha)) / (n + params.reg_lambda)


def oracle_best_split_node(
    X: np.ndarray,
    g: np.ndarray,
    rows: np.ndarray,
    cols: Sequence[int],
    params: GbtParams,
) -> _Split | None:
    """The per-node split search that the level-batched one replaced, kept as written.

    Exhaustive best split over the given rows and feature columns.

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


def oracle_grow_tree(
    X: np.ndarray,
    g: np.ndarray,
    rows: np.ndarray,
    cols: Sequence[int],
    params: GbtParams,
    gain_out: dict[int, float],
) -> np.ndarray:
    """The recursive per-node grower that the level-batched one replaced, kept as written."""
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
            split = oracle_best_split_node(X, g, node_rows, cols, params) if depth < params.max_depth else None
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
            (0, rows, 0, oracle_best_split_node(X, g, rows, cols, params))
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
                    oracle_best_split_node(X, g, child_rows, cols, params) if depth + 1 < params.max_depth else None
                )
                frontier.append((child_id, child_rows, depth + 1, child_split))
            n_leaves += 1
        for node_id, node_rows, _, _ in frontier:
            make_leaf(node_id, node_rows)

    return make_tree(nodes)


def oracle_gbt_fit(matrix: DesignMatrix, params):
    """gbt_fit's boosting loop over oracle_grow_tree, every row routed through the tree for its prediction.

    Returns (trees, gain_totals, train_rmse). The gain totals are running
    sums kept as the splits are made, which gbt_gain_totals must equal.
    """
    X, y = matrix.rows, matrix.targets
    n, d = X.shape
    pred = np.full(n, float(np.mean(y)), dtype=np.float64)
    rng = np.random.default_rng(params.seed)
    trees, gain_totals, train_rmse = [], {}, []
    n_sub = max(1, int(round(params.subsample * n)))
    n_cols = max(1, int(round(params.colsample_bytree * d)))
    for _ in range(params.n_estimators):
        rows = np.arange(n, dtype=np.intp) if n_sub >= n else np.sort(rng.permutation(n)[:n_sub])
        cols = list(range(d)) if n_cols >= d else sorted(rng.permutation(d)[:n_cols].tolist())
        g = pred - y
        tree = oracle_grow_tree(X, g, rows, cols, params, gain_totals)
        trees.append(tree)
        pred += params.eta * _tree_predict(tree, X)
        train_rmse.append(float(np.sqrt(np.mean((pred - y) ** 2))))
    names = matrix.schema.columns
    return trees, {names[f]: v for f, v in sorted(gain_totals.items())}, train_rmse


def oracle_forest_predict(model, rows: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """base_score plus eta times each tree's leaf weight, walking every row's path node by node."""

    def walk(tree, row, miss):
        node = tree[0]
        while node["feature"] >= 0:
            go_left = node["default_left"] if miss[node["feature"]] else row[node["feature"]] < node["threshold"]
            node = tree[node["left"] if go_left else node["right"]]
        return node["weight"]

    expected = np.full(len(rows), model.base_score)
    for tree in model.trees:
        expected += model.params.eta * np.array([walk(tree, rows[i], missing[i]) for i in range(len(rows))])
    return expected


def oracle_ols(X: np.ndarray, y: np.ndarray):
    """Least squares with intercept via normal equations; returns (intercept, coefs)."""
    A = np.column_stack([np.ones(len(X)), X])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(beta[0]), beta[1:]


def oracle_expand(Z: np.ndarray, terms) -> np.ndarray:
    """The product column of each term, one term at a time."""
    out = np.empty((Z.shape[0], len(terms)), dtype=np.float64)
    for k, term in enumerate(terms):
        col = Z[:, term[0]].copy()
        for j in term[1:]:
            col *= Z[:, j]
        out[:, k] = col
    return out


def oracle_poly_cd(P: np.ndarray, y: np.ndarray, params):
    """The elastic net by coordinate descent on the residual, one column dot per coordinate.

    A pass visits, in index order, the non-constant coordinates that are
    nonzero or whose |P[:, j] . r / n| exceeds alpha * l1_ratio at the pass's
    start, as poly_fit's passes do. P is the expanded, standardized design.
    Returns (intercept, coef, converged, n_sweeps, objective_history), with
    poly_fit's meaning of a pass.
    """
    return _poly_cd(P, y, params, every_coordinate=False)


def oracle_poly_cd_cyclic(P: np.ndarray, y: np.ndarray, params):
    """oracle_poly_cd with every pass visiting every non-constant coordinate."""
    return _poly_cd(P, y, params, every_coordinate=True)


def _poly_cd(P: np.ndarray, y: np.ndarray, params, every_coordinate: bool):
    n, m = P.shape
    col_sq = (P * P).sum(axis=0) / n
    l1 = params.alpha * params.l1_ratio
    l2 = params.alpha * (1.0 - params.l1_ratio)

    def objective(r, beta):
        penalty = params.alpha * (
            params.l1_ratio * float(np.abs(beta).sum())
            + 0.5 * (1.0 - params.l1_ratio) * float(beta @ beta)
        )
        return 0.5 / n * float(r @ r) + penalty

    beta = np.zeros(m, dtype=np.float64)
    intercept = float(np.mean(y))
    r = y - intercept
    history = []
    converged = False
    sweeps = 0
    for sweeps in range(1, params.max_iterations + 1):
        max_delta = 0.0
        visit = [
            j for j in range(m)
            if col_sq[j] != 0.0 and (every_coordinate or beta[j] != 0.0 or abs((P[:, j] @ r) / n) > l1)
        ]
        for j in visit:
            old = beta[j]
            rho = (P[:, j] @ r) / n + col_sq[j] * old
            new = float(np.sign(rho) * max(abs(rho) - l1, 0.0)) / (col_sq[j] + l2)
            if new != old:
                r -= (new - old) * P[:, j]
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        shift = float(np.mean(r))
        if shift != 0.0:
            intercept += shift
            r -= shift
            max_delta = max(max_delta, abs(shift))
        r = y - P @ beta - intercept
        history.append(objective(r, beta))
        if max_delta < params.tolerance:
            converged = True
            break
    return intercept, beta, converged, sweeps, history


def oracle_lowess(x: np.ndarray, y: np.ndarray, frac: float) -> np.ndarray:
    """Weighted-least-squares smoother using np.polyfit for the local fits."""
    n = len(x)
    r = int(math.ceil(frac * n))
    out = np.empty(n)
    for i in range(n):
        d = np.abs(x - x[i])
        order = np.argsort(d, kind="stable")[:r]
        dmax = d[order][-1]
        if dmax == 0:
            out[i] = y[order].mean()
            continue
        w = (1 - (d[order] / dmax) ** 3) ** 3
        if w.sum() == 0:
            out[i] = y[order].mean()
            continue
        keep = w > 0
        if np.unique(x[order][keep]).size < 2:
            out[i] = float(np.average(y[order], weights=w))
            continue
        coef = np.polyfit(x[order], y[order], 1, w=np.sqrt(w))
        out[i] = coef[0] * x[i] + coef[1]
    return out


def oracle_lowess_per_point(points, frac: float = 0.5) -> list[float]:
    """report.lowess with one full sort per point.

    Each neighborhood is the r nearest by (distance, x, index), summed in
    (x, index) order as moments of u = x - x_i.
    """
    if not (0.0 < frac <= 1.0):
        raise ValueError(f"frac {frac} outside (0, 1]")
    n = len(points)
    x = np.asarray([p[0] for p in points], dtype=np.float64)
    y = np.asarray([p[1] for p in points], dtype=np.float64)
    if n < 2 or np.unique(x).size < 2:
        raise TooFewPoints("lowess needs >= 2 points with distinct x")
    r = int(math.ceil(frac * n))
    index = np.arange(n)
    fitted = np.empty(n, dtype=np.float64)
    for i in range(n):
        near = np.lexsort((index, x, np.abs(x - x[i])))[:r]
        near = near[np.lexsort((near, x[near]))]
        u, ys = x[near] - x[i], y[near]
        dn = np.abs(u)
        dmax = dn.max()
        if dmax == 0.0:
            fitted[i] = float(np.mean(ys))
            continue
        w = (1.0 - (dn / dmax) ** 3) ** 3
        sw = float(w.sum())
        if sw == 0.0:
            fitted[i] = float(np.mean(ys))
            continue
        su = float((w * u).sum())
        sy = float((w * ys).sum())
        suu = float((w * u * u).sum())
        suy = float((w * u * ys).sum())
        det = sw * suu - su * su
        if abs(det) <= 1e-12 * max(sw * suu, su * su, 1e-300):
            fitted[i] = sy / sw
            continue
        fitted[i] = (sy * suu - su * suy) / det
    return fitted.tolist()


def oracle_lowess_exact(points, frac: float = 0.5) -> list[Fraction]:
    """The lowess fit in rational arithmetic: exact tricube weights and an exact weighted line at each x_i.

    Each neighborhood is the r nearest by (distance, x, index), as in
    report.lowess; a neighborhood without spread gives its weighted mean.
    """
    x = [Fraction(px) for px, _ in points]
    y = [Fraction(py) for _, py in points]
    n = len(points)
    r = int(math.ceil(frac * n))
    fitted = []
    for xi in x:
        near = sorted(range(n), key=lambda j: (abs(x[j] - xi), x[j], j))[:r]
        u = [x[j] - xi for j in near]
        dmax = max(abs(uj) for uj in u)
        w = [(1 - (abs(uj) / dmax) ** 3) ** 3 if dmax else Fraction(1) for uj in u]
        sw, su, sy = sum(w), sum(wj * uj for wj, uj in zip(w, u)), sum(wj * y[j] for wj, j in zip(w, near))
        suu = sum(wj * uj * uj for wj, uj in zip(w, u))
        suy = sum(wj * uj * y[j] for wj, uj, j in zip(w, u, near))
        det = sw * suu - su * su
        fitted.append((sy * suu - su * suy) / det if det else sy / sw)
    return fitted


def oracle_build_design_matrix(records, schema, dataset_features=None, language_table=None) -> DesignMatrix:
    """records.build_design_matrix resolving every record's language and dataset block on its own."""
    n = len(records)
    d = len(schema.columns)
    rows = np.full((n, d), np.nan, dtype=np.float64)
    targets = np.empty(n, dtype=np.float64)
    col_index = {c: j for j, c in enumerate(schema.columns)}

    # a column's group follows from its name
    lang_enabled = not col_index.keys().isdisjoint(DISTANCE_KINDS)
    data_enabled = not col_index.keys().isdisjoint(DATASET_FEATURE_COLUMNS)
    proxy_cols = [(c, c[len(PROXY_PREFIX):]) for c in schema.columns if c.startswith(PROXY_PREFIX)]

    for i, rec in enumerate(records):
        targets[i] = rec.score
        if lang_enabled:
            if language_table is None:
                raise MissingFeature(rec.record_id, "language (no distance table supplied)")
            try:
                distances = language_features(language_table, rec.src_lang, rec.tgt_lang)
            except MissingPair as exc:
                raise MissingFeature(rec.record_id, f"language:{'+'.join(exc.kinds)}") from exc
            for kind, value in zip(DISTANCE_KINDS, distances):
                rows[i, col_index[kind]] = value
        if data_enabled:
            if dataset_features is None:
                raise MissingFeature(rec.record_id, "dataset (no feature blocks supplied)")
            block = dataset_features.get((rec.train_dataset, rec.test_dataset))
            if block is None:
                raise MissingFeature(rec.record_id, f"dataset:({rec.train_dataset},{rec.test_dataset})")
            for name, value in zip(DATASET_FEATURE_COLUMNS, block.as_row()):
                if value is not None:
                    rows[i, col_index[name]] = float(value)
        for column, proxy_id in proxy_cols:
            value = rec.proxy_scores.get(proxy_id)
            if value is not None:
                rows[i, col_index[column]] = value

    return DesignMatrix(
        schema=schema,
        rows=rows,
        targets=targets,
        row_ids=[rec.record_id for rec in records],
        languages=[(rec.src_lang, rec.tgt_lang) for rec in records],
    )


def oracle_mf_sgd(C: np.ndarray, y: np.ndarray, src_of, tgt_of, n_src: int, n_tgt: int, params):
    """MF's seeded SGD with one numpy update per parameter block per record.

    C is the standardized context block and src_of/tgt_of index each record's
    languages in sorted order, as mf_fit builds them. The dot products go
    through numpy's `@`. Returns (W, H, b_s, b_t, theta, mu).
    """
    n = len(y)
    k = params.latent_dim
    c_dim = C.shape[1]
    rng = np.random.default_rng(params.seed)
    W = rng.uniform(-0.01, 0.01, size=(n_src, k))
    H = rng.uniform(-0.01, 0.01, size=(n_tgt, k))
    b_s = [0.0] * n_src
    b_t = [0.0] * n_tgt
    theta = np.zeros(c_dim, dtype=np.float64)
    mu = float(np.mean(y))
    y_of = y.tolist()

    for epoch in range(params.iterations):
        lr = params.alpha / (1.0 + params.lr_decay * epoch)
        for i in rng.permutation(n).tolist():
            a, b = src_of[i], tgt_of[i]
            ws, ht = W[a], H[b]
            ci = C[i]
            err = mu + b_s[a] + b_t[b] + float(ws @ ht) + float(theta @ ci) - y_of[i]
            ws_old = ws.copy()
            ws -= lr * (err * ht + params.beta_w * ws)
            ht -= lr * (err * ws_old + params.beta_h * ht)
            b_s[a] -= lr * (err + params.beta_s * b_s[a])
            b_t[b] -= lr * (err + params.beta_t * b_t[b])
            if c_dim:
                theta -= lr * (err * ci + params.beta_z * theta)
    return W, H, np.array(b_s), np.array(b_t), theta, mu


# The records CSV reader that the one-pass reader replaced, with the checks it called, kept as
# written but for its line numbers. Its record checks name no file or line, and it does not look
# for repeated ids. It finds each row's physical line by counting line ends and quotes in the raw
# text, not through the csv module's line count.


def _check_score(record_id: str, metric_name: str, score: float) -> None:
    if not math.isfinite(score):
        raise RangeError(f"record {record_id!r}: non-finite score {score}")
    bounds = METRIC_RANGES.get(metric_name.lower())
    if bounds is not None and not (bounds[0] <= score <= bounds[1]):
        raise RangeError(
            f"record {record_id!r}: {metric_name} score {score} outside [{bounds[0]}, {bounds[1]}]"
        )


def oracle_validate_record(rec: PerformanceRecord) -> PerformanceRecord:
    if rec.task not in TASKS:
        raise ParseError(f"record {rec.record_id!r}: unknown task {rec.task!r}")
    if rec.corpus_group not in CORPUS_GROUPS:
        raise ParseError(f"record {rec.record_id!r}: unknown corpus_group {rec.corpus_group!r}")
    if rec.joshi_class is not None and not (0 <= rec.joshi_class <= 5):
        raise ParseError(f"record {rec.record_id!r}: joshi_class {rec.joshi_class} outside 0-5")
    _check_score(rec.record_id, rec.metric_name, rec.score)
    for proxy_id, value in rec.proxy_scores.items():
        if value is not None and not math.isfinite(value):
            raise RangeError(f"record {rec.record_id!r}: non-finite proxy score for {proxy_id!r}")
    return rec


def _parse_bool(raw: str, context: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ParseError(f"{context}: bad boolean {raw!r}")


def csv_rows_by_line(text: str) -> list[tuple[int, list[str]]]:
    """Each CSV row of text, blank ones too, with the physical line it starts on.

    The text is cut at every line end ("\\r\\n", "\\n" or a lone "\\r"), and a
    line joins the next while the row so far holds an odd number of quotes,
    that is while a quoted cell is open.
    """
    parts = re.split(r"(\r\n|\r|\n)", text)  # line, end, line, end, ..., text after the last end
    lines = ["".join(parts[i:i + 2]) for i in range(0, len(parts), 2)]
    if lines[-1] == "":
        lines.pop()
    rows: list[tuple[int, list[str]]] = []
    pending: list[str] = []
    for number, line in enumerate(lines, start=1):
        pending.append(line)
        if "".join(pending).count('"') % 2 == 0:
            rows.append((number - len(pending) + 1, next(csv.reader(pending), [])))
            pending = []
    if pending:
        rows.append((len(lines) - len(pending) + 1, next(csv.reader(pending), [])))
    return rows


def oracle_load_records_csv(path: str) -> list[PerformanceRecord]:
    records: list[PerformanceRecord] = []
    with open_text(path, newline="") as fh:
        rows = csv_rows_by_line(fh.read())
        if not rows:
            return []
        header = [h.strip() for h in rows[0][1]]
        if tuple(header[: len(_BASE_COLUMNS)]) != _BASE_COLUMNS:
            raise ParseError(f"{path}: unexpected records header (first columns must be {','.join(_BASE_COLUMNS)})")
        proxy_ids = []
        for col in header[len(_BASE_COLUMNS):]:
            if not col.startswith(PROXY_PREFIX):
                raise ParseError(f"{path}: unexpected column {col!r} (proxy columns must start with {PROXY_PREFIX!r})")
            proxy_ids.append(col[len(PROXY_PREFIX):])
        for lineno, row in rows[1:]:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            context = f"{path}:{lineno}"
            try:
                score = float(row[8])
            except ValueError as exc:
                raise ParseError(f"{context}: bad score {row[8]!r}") from exc
            joshi_raw = row[11].strip()
            try:
                joshi = int(joshi_raw) if joshi_raw else None
            except ValueError as exc:
                raise ParseError(f"{context}: bad joshi_class {joshi_raw!r}") from exc
            proxies: dict[str, float | None] = {}
            for proxy_id, cell in zip(proxy_ids, row[len(_BASE_COLUMNS):]):
                cell = cell.strip()
                if cell == "":
                    proxies[proxy_id] = None
                else:
                    try:
                        proxies[proxy_id] = float(cell)
                    except ValueError as exc:
                        raise ParseError(f"{context}: bad proxy score {cell!r}") from exc
            rec = PerformanceRecord(
                record_id=row[0],
                task=row[1],
                estimated_model=row[2],
                train_dataset=row[3],
                test_dataset=row[4],
                src_lang=row[5],
                tgt_lang=row[6],
                metric_name=row[7],
                score=score,
                proxy_scores=proxies,
                seen_by_estimated_model=_parse_bool(row[9], context),
                corpus_group=row[10],
                joshi_class=joshi,
            )
            records.append(oracle_validate_record(rec))
    return records


# ---------------------------------------------------------------------------
# Experiment driver on record lists: one pair of design matrices per split unit
# ---------------------------------------------------------------------------

def oracle_split_random(
    records: Sequence[PerformanceRecord], ratio: float, seed: int
) -> tuple[list[PerformanceRecord], list[PerformanceRecord]]:
    """Seeded shuffle; train takes the first floor(ratio * n) records."""
    n = len(records)
    if n < 2:
        raise TooFewRecords(f"need >= 2 records, got {n}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio {ratio} outside (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    # tiny epsilon so float products like 0.7 * 90 floor to the exact value
    n_train = int(math.floor(ratio * n + 1e-9))
    train = [records[i] for i in perm[:n_train]]
    test = [records[i] for i in perm[n_train:]]
    return train, test


def oracle_split_lolo(
    records: Sequence[PerformanceRecord],
) -> list[tuple[str, list[PerformanceRecord], list[PerformanceRecord]]]:
    """One (language, train, test) split per holdable language.

    A record is on the test side iff the held-out language is its source or
    target. Languages appearing in every record (English in English-centric
    data) cannot be held out: doing so would empty the training side.
    """
    langs = sorted({r.src_lang for r in records} | {r.tgt_lang for r in records})
    holdable = [
        lang for lang in langs
        if not all(lang in (r.src_lang, r.tgt_lang) for r in records)
    ]
    if len(holdable) < 2:
        raise TooFewLanguages(f"need >= 2 holdable languages, got {len(holdable)}")
    splits = []
    for lang in holdable:
        test = [r for r in records if lang in (r.src_lang, r.tgt_lang)]
        train = [r for r in records if lang not in (r.src_lang, r.tgt_lang)]
        splits.append((lang, train, test))
    return splits


def oracle_split_unseen(
    records: Sequence[PerformanceRecord],
) -> tuple[list[PerformanceRecord], list[PerformanceRecord]]:
    """Train on records the estimated model has seen, test on the rest."""
    train = [r for r in records if r.seen_by_estimated_model]
    test = [r for r in records if not r.seen_by_estimated_model]
    if not train or not test:
        raise DegenerateSplit("unseen split needs both seen and unseen records")
    return train, test


def oracle_split_cross_dataset(
    train_records: Sequence[PerformanceRecord],
    test_records: Sequence[PerformanceRecord],
) -> tuple[list[PerformanceRecord], list[PerformanceRecord]]:
    """Identity passthrough after checking the two sources are schema-compatible."""
    if not train_records or not test_records:
        raise TooFewRecords("cross-dataset split needs non-empty train and test record lists")
    roster_train = proxy_roster(train_records)
    roster_test = proxy_roster(test_records)
    if roster_train != roster_test:
        raise SchemaMismatch(
            f"proxy rosters differ: {roster_train} vs {roster_test}"
        )
    return list(train_records), list(test_records)


def oracle_kfold_cv(matrix: DesignMatrix, k: int, grid, seed: int) -> CvResult:
    """Grid search one grid point at a time, fitting it afresh on every fold; ties break to the earlier point."""
    if not grid:
        raise ValueError("empty hyperparameter grid")
    folds = kfold_indices(matrix.n, k, seed)
    splits = [
        (matrix.subset(np.concatenate([folds[j] for j in range(k) if j != i])), matrix.subset(folds[i]))
        for i in range(k)
    ]
    scores: list[float] = []
    for params in grid:
        seeded = with_seed(params, seed)
        fold_rmse = [rmse(predict_model(fit_model(seeded, train), val), val.targets) for train, val in splits]
        scores.append(float(np.mean(fold_rmse)))
    best = min(range(len(grid)), key=lambda i: (scores[i], i))
    return CvResult(best_index=best, scores=scores)


def _oracle_split_units(config: ExperimentConfig, records, seed: int):
    """Each unit is (label, train_records, test_records); labels are LOLO languages."""
    kind = config.split.kind
    if kind == "random":
        train, test = oracle_split_random(records, config.split.ratio, seed)
        return [(None, train, test)]
    if kind == "lolo":
        splits = oracle_split_lolo(records)
        if config.split.held_out_language is not None:
            splits = [s for s in splits if s[0] == config.split.held_out_language]
            if not splits:
                raise TooFewLanguages(f"language {config.split.held_out_language!r} is not holdable")
        return splits
    if kind == "unseen":
        train, test = oracle_split_unseen(records)
        return [(None, train, test)]
    train, test = oracle_split_cross_dataset(records, config.test_records)
    return [(None, train, test)]


def _oracle_language_pairs(records) -> list[tuple[str, str]]:
    return [(rec.src_lang, rec.tgt_lang) for rec in records]


def _oracle_check_plan_languages(config: ExperimentConfig, plan) -> None:
    """Refuse, before any fit, a test side or CV fold the regressor could not predict from its training side."""
    for r, (seed_r, units) in enumerate(plan):
        for label, train_recs, test_recs in units:
            unit = f"repeat {r}" if label is None else f"repeat {r}, LOLO unit {label!r}"
            train_pairs = _oracle_language_pairs(train_recs)
            check_languages(config.grid[0], train_pairs, _oracle_language_pairs(test_recs), f"the test side of {unit}")
            if len(config.grid) == 1:
                continue
            folds = kfold_indices(len(train_pairs), config.cv_folds, seed_r)
            for i, fold in enumerate(folds):
                held = set(fold.tolist())
                check_languages(
                    config.grid[0],
                    [pair for j, pair in enumerate(train_pairs) if j not in held],
                    [train_pairs[j] for j in fold.tolist()],
                    f"CV fold {i} of {unit}",
                )


def oracle_run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Repeat the full select-fit-evaluate protocol and aggregate test RMSE.

    Per repeat: derive the repeat seed, build the split, grid-search with
    k-fold CV on the training side (skipped when the grid has one candidate),
    refit on the full training side, and score the test side. LOLO pools the
    predictions of all per-language splits before computing the repeat RMSE.
    Every repeat's split units and CV folds are drawn, and checked for
    languages the regressor could not predict, before the first fit.
    """
    config.validate()
    records = _filtered_records(config)
    roster = sorted(config.proxies) if config.proxies is not None else proxy_roster(
        records + (config.test_records or [])
    )
    schema = build_schema(config.feature_groups, roster)

    per_repeat: list[float] = []
    final_predictions: list[tuple[str, float, float]] = []
    final_chosen: dict = {}
    final_per_lang: dict[str, float] | None = None
    final_gains: dict[str, float] = {}
    final_cv: dict = {}

    plan = [(config.seed + r, _oracle_split_units(config, records, config.seed + r)) for r in range(config.repeats)]
    _oracle_check_plan_languages(config, plan)

    for r, (seed_r, units) in enumerate(plan):
        all_pred: list[np.ndarray] = []
        all_true: list[np.ndarray] = []
        all_ids: list[str] = []
        chosen: dict = {}
        per_lang: dict[str, float] = {}
        gains: dict[str, float] = {}
        cv_scores: dict = {}

        for label, train_recs, test_recs in units:
            m_train = build_design_matrix(train_recs, schema, config.dataset_features, config.language_table)
            m_test = build_design_matrix(test_recs, schema, config.dataset_features, config.language_table)

            if len(config.grid) == 1:
                best = config.grid[0]
            else:
                cv = oracle_kfold_cv(m_train, config.cv_folds, config.grid, seed_r)
                best = config.grid[cv.best_index]
                cv_scores[label or "all"] = cv.scores
            model = fit_model(with_seed(best, seed_r), m_train)
            pred = predict_model(model, m_test)

            all_pred.append(pred)
            all_true.append(m_test.targets)
            all_ids.extend(m_test.row_ids)
            chosen[label or "all"] = _params_dict(best)
            if label is not None:
                per_lang[label] = rmse(pred, m_test.targets)
            if isinstance(model, GbtModel):
                for name, val in gbt_gain_totals(model).items():
                    gains[name] = gains.get(name, 0.0) + val

        pooled_pred = np.concatenate(all_pred)
        pooled_true = np.concatenate(all_true)
        per_repeat.append(rmse(pooled_pred, pooled_true))

        if r == config.repeats - 1:
            final_predictions = [
                (rid, float(t), float(p))
                for rid, t, p in zip(all_ids, pooled_true, pooled_pred)
            ]
            final_chosen = chosen
            final_per_lang = per_lang if config.split.kind == "lolo" else None
            final_gains = gains
            final_cv = cv_scores

    total_gain = sum(final_gains.values())
    importance = (
        {k: v / total_gain for k, v in sorted(final_gains.items())} if total_gain > 0 else None
    )
    return ExperimentResult(
        per_repeat_rmse=per_repeat,
        mean_rmse=float(np.mean(per_repeat)),
        std_rmse=float(np.std(per_repeat)),
        chosen_params=final_chosen,
        predictions=final_predictions,
        per_language_rmse=final_per_lang,
        importance=importance,
        cv_scores=final_cv,
    )
