"""Polynomial elastic-net regression fit by coordinate descent.

Columns are mean-imputed (training-split means) and standardized (training-
split statistics), then expanded to all monomials of total degree <= degree
in a fixed order: degree 1 terms first, within each degree the
lexicographic order of nondecreasing index tuples. The expansion builds the
terms of one degree at a time, a block of columns per multiply (see
_expand). The objective is

    (1/2n) ||y - X beta - b||^2
        + alpha * (l1_ratio * ||beta||_1 + 0.5 * (1 - l1_ratio) * ||beta||_2^2)

minimized coordinate by coordinate in passes, until the largest change in a
pass, the intercept's included, drops below tolerance.

Passes use covariance updates (glmnet; Friedman, Hastie & Tibshirani, JSS
2010, section 2.2). A fit forms c = P^T r / n, each term's covariance with
the residual r, once, and keeps it current across passes with the Gram
matrix G = P^T P / n, formed once per fit: a coefficient that moves by
delta subtracts delta * G[j] from c, so a visit makes no pass over the
rows. G holds m^2 floats, 14 MB for the 1329 terms of degree 3 on 18
columns (poly3_default).
A pass visits, in index order, only the coordinates that can move: the
nonzero ones, and the zero ones whose |c[j]| at the pass's start exceeds the
l1 penalty alpha * l1_ratio (inside that band the soft-threshold keeps a
zero coordinate at zero: glmnet's active set, with its KKT check at every
pass). A zero coordinate that leaves the band partway through a pass waits
for the next one; constant terms are never visited. So the pass that ends
a converged fit has checked every coordinate, as a pass over all of them
would. max_iterations caps, and n_sweeps counts, these passes. A fit that
stops at the cap stops at another point of the descent than passes over
every coordinate would: on the m2m_solvers benchmark inputs
(seed 31, 141 fits at its 100-pass cap) coefficients moved by a median
6.3e-6 and at most 2.1e-3 of the fit's largest, and final objectives by at
most 2.5e-6 relative. After the coordinates, the intercept takes the
residual's mean, y_mean - p_mean . beta with p_mean the column means of P,
and a shift of it subtracts shift * p_mean from c. No pass forms the
residual, P^T r or the objective; the residual is formed once, after the
last pass, for the final objective. So c carries the rounding of every
move, which recomputing it each pass would reset: against fits that did,
test predictions moved by at most 6e-16 relative at degree 2 and 1.4e-12
at degree 3, and a 5000-pass poly3_default fit on 300 records by 3.9e-13
of its largest coefficient, with the same final objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from ..fields import check_field_types
from ..records import DesignMatrix

_BLOCK_CELLS = 1 << 18  # cells of one block of product columns in _expand (2 MB)


@dataclass(frozen=True)
class PolyParams:
    degree: int = 2
    alpha: float = 0.1
    l1_ratio: float = 0.9
    max_iterations: int = 5000
    tolerance: float = 1e-9

    def __post_init__(self):
        check_field_types(self)
        if self.degree < 1 or self.degree > 3:
            raise ValueError("degree must be 1, 2 or 3")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not (0.0 <= self.l1_ratio <= 1.0):
            raise ValueError("l1_ratio must be in [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")


@dataclass
class PolyModel:
    params: PolyParams
    intercept: float
    coef: np.ndarray  # coef[k] multiplies the product column of terms[k]
    impute: np.ndarray  # per-column training means substituted for missing (NaN) cells
    mean: np.ndarray
    std: np.ndarray
    feature_names: tuple[str, ...]
    converged: bool
    n_sweeps: int
    objective: float = math.nan  # the final objective; not saved, so NaN in a loaded model

    @property
    def terms(self) -> list[tuple[int, ...]]:
        """The monomials of the expansion, which the column count and the degree fix."""
        return expansion_terms(len(self.mean), self.params.degree)


def expansion_terms(n_features: int, degree: int) -> list[tuple[int, ...]]:
    """All monomials of total degree 1..degree as nondecreasing index tuples."""
    return [term for deg in range(1, degree + 1) for term in combinations_with_replacement(range(n_features), deg)]


def term_count(n_features: int, degree: int) -> int:
    """len(expansion_terms(n_features, degree)), C(n_features + degree, degree) - 1, without listing the terms."""
    return math.comb(n_features + degree, degree) - 1


def impute_and_standardize(rows: np.ndarray):
    """Training-split imputation and standardization statistics.

    Missing (NaN) cells take the column mean of observed cells (0 when a
    column is entirely missing, the value itself when every observed cell
    holds one value); standardization then uses the imputed column's mean
    and population std. A column whose imputed cells are all equal is
    constant: its mean is that value and its std 1, so it standardizes to
    0. np.mean and np.std of such a column may miss that value and 0 by
    rounding (0.1 in 3 rows has std 1.4e-17), which would standardize
    another value of it to about 1e15. rows holds at least one row.
    """
    missing = np.isnan(rows)
    impute = np.zeros(rows.shape[1], dtype=np.float64)
    # one 1-D mean per column, as a 2-D nanmean may add in another order
    for j in range(rows.shape[1]):
        observed = rows[~missing[:, j], j]
        if observed.size:  # np.mean of one repeated value may miss it by rounding
            impute[j] = observed[0] if (observed == observed[0]).all() else float(np.mean(observed))
    X = np.where(missing, impute, rows)
    constant = (X == X[0]).all(axis=0)
    mean = np.where(constant, X[0], X.mean(axis=0))
    std = np.where(constant, 1.0, X.std(axis=0))
    return X, impute, mean, std


def _apply_stats(rows: np.ndarray, impute: np.ndarray, mean: np.ndarray, std: np.ndarray):
    return (np.where(np.isnan(rows), impute, rows) - mean) / std


def _expand(Z: np.ndarray, degree: int) -> np.ndarray:
    """The product column of every term of expansion_terms(Z.shape[1], degree), in that order.

    The terms of one degree form an index array idx of shape (count,
    degree) and fill a contiguous range of columns. A block of them is the
    gather Z[:, idx[:, 0]], multiplied in place by Z[:, idx[:, d]] for each
    further factor, so each cell is the product of the same factors in the
    same order as a per-term loop, to the bit. A block holds at most
    _BLOCK_CELLS cells, which bounds the temporaries.
    """
    n, d = Z.shape
    out = np.empty((n, term_count(d, degree)), dtype=np.float64)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    start = 0  # the first column of the next block
    for deg in range(1, degree + 1):
        idx = np.array(list(combinations_with_replacement(range(d), deg)), dtype=np.intp).reshape(-1, deg)
        for b in range(0, len(idx), step):
            block = Z[:, idx[b:b + step, 0]]
            for f in range(1, deg):
                block *= Z[:, idx[b:b + step, f]]
            out[:, start:start + block.shape[1]] = block
            start += block.shape[1]
    return out


def _objective(r: np.ndarray, beta: np.ndarray, params: PolyParams) -> float:
    n = r.shape[0]
    penalty = params.alpha * (
        params.l1_ratio * float(np.abs(beta).sum())
        + 0.5 * (1.0 - params.l1_ratio) * float(beta @ beta)
    )
    return 0.5 / n * float(r @ r) + penalty


def poly_fit(matrix: DesignMatrix, params: PolyParams) -> PolyModel:
    y = matrix.training_targets()
    Xs, impute, mean, std = impute_and_standardize(matrix.rows)
    Z = (Xs - mean) / std
    P = _expand(Z, params.degree)
    n, m = P.shape

    col_sq = (P * P).sum(axis=0) / n
    gram = P.T @ P / n  # symmetric, so row j is column j
    gram_rows = list(gram)
    sq_at = col_sq.tolist()
    movable = col_sq != 0.0  # a constant term never moves
    l1 = params.alpha * params.l1_ratio
    l2 = params.alpha * (1.0 - params.l1_ratio)

    beta = np.zeros(m, dtype=np.float64)
    beta_at = beta.data  # plain-float reads and writes of beta's cells
    y_mean = float(np.mean(y))
    p_mean = P.mean(axis=0)  # the intercept's shift is y_mean - p_mean . beta - intercept
    intercept = y_mean
    c = P.T @ (y - intercept) / n  # c[j] = P[:, j] . r / n, kept current as coordinates and the intercept move
    c_at = c.data
    converged = False
    sweeps = 0
    for sweeps in range(1, params.max_iterations + 1):
        max_delta = 0.0
        # a zero coordinate with |c[j]| <= l1 cannot move
        for j in np.flatnonzero(movable & ((beta != 0.0) | (np.abs(c) > l1))).tolist():
            old = beta_at[j]
            sq = sq_at[j]
            rho = c_at[j] + sq * old
            if rho > l1:
                new = (rho - l1) / (sq + l2)
            elif rho < -l1:
                new = (rho + l1) / (sq + l2)
            else:
                new = 0.0
            if new != old:
                c -= (new - old) * gram_rows[j]
                beta_at[j] = new
                max_delta = max(max_delta, abs(new - old))
        shift = y_mean - float((p_mean * beta).sum()) - intercept  # an elementwise sum, not a BLAS dot
        if shift != 0.0:
            intercept += shift
            c -= shift * p_mean
            max_delta = max(max_delta, abs(shift))
        if max_delta < params.tolerance:
            converged = True
            break

    return PolyModel(
        params=params,
        intercept=intercept,
        coef=beta,
        impute=impute,
        mean=mean,
        std=std,
        feature_names=matrix.schema.columns,
        converged=converged,
        n_sweeps=sweeps,
        objective=_objective(y - P @ beta - intercept, beta, params),
    )


def poly_predict(model: PolyModel, matrix: DesignMatrix) -> np.ndarray:
    matrix.schema.check_columns(model.feature_names)
    Z = _apply_stats(matrix.rows, model.impute, model.mean, model.std)
    return _expand(Z, model.params.degree) @ model.coef + model.intercept
