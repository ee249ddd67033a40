"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's code paths: plain loops, sets,
math.log2, explicit normal equations, exhaustive split enumeration. Expected
values asserted in the tests are computed here (or frozen from here).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


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


def oracle_forest_predict(model, rows: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """base_score plus eta times each tree's leaf weight, walking every row's path node by node."""

    def walk(tree, row, miss):
        node = tree[0]
        while node.feature >= 0:
            go_left = node.default_left if miss[node.feature] else row[node.feature] < node.threshold
            node = tree[node.left if go_left else node.right]
        return node.weight

    expected = np.full(len(rows), model.base_score)
    for tree in model.trees:
        expected += model.eta * np.array([walk(tree, rows[i], missing[i]) for i in range(len(rows))])
    return expected


def oracle_ols(X: np.ndarray, y: np.ndarray):
    """Least squares with intercept via normal equations; returns (intercept, coefs)."""
    A = np.column_stack([np.ones(len(X)), X])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(beta[0]), beta[1:]


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
