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

A pass uses covariance updates (glmnet; Friedman, Hastie & Tibshirani, JSS
2010, section 2.2). It starts from c = P^T r / n, each term's covariance
with the residual r, and keeps c current with the Gram matrix G = P^T P / n,
formed once per fit: a coefficient that moves by delta subtracts
delta * G[j] from c, so a visit makes no pass over the rows. G holds m^2
floats, 14 MB for the 1329 terms of degree 3 on 18 columns (poly3_default).
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
residual's mean and the residual is recomputed from scratch, so float drift
cannot accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from ..errors import EmptyTrainingSet
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
    objective_history: list[float] = field(default_factory=list)

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
    column is entirely missing); standardization then uses the imputed
    column's mean and population std (constant columns get std 1 so they
    standardize to 0).
    """
    missing = np.isnan(rows)
    impute = np.zeros(rows.shape[1], dtype=np.float64)
    # one 1-D mean per column, as a 2-D nanmean may add in another order
    for j in range(rows.shape[1]):
        observed = rows[~missing[:, j], j]
        impute[j] = float(np.mean(observed)) if observed.size else 0.0
    X = np.where(missing, impute, rows)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
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
    if matrix.n == 0:
        raise EmptyTrainingSet("cannot fit on an empty design matrix")
    y = matrix.targets
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
    intercept = float(np.mean(y))
    r = y - intercept  # residual y - P beta - intercept
    history: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, params.max_iterations + 1):
        max_delta = 0.0
        c = P.T @ r / n  # c[j] = P[:, j] . r / n, kept current as coordinates move
        c_at = c.data
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
        unshifted = y - P @ beta  # the residual before the intercept
        shift = float(np.mean(unshifted - intercept))
        if shift != 0.0:
            intercept += shift
            max_delta = max(max_delta, abs(shift))
        r = unshifted - intercept
        history.append(_objective(r, beta, params))
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
        objective_history=history,
    )


def poly_predict(model: PolyModel, matrix: DesignMatrix) -> np.ndarray:
    matrix.schema.check_columns(model.feature_names)
    Z = _apply_stats(matrix.rows, model.impute, model.mean, model.std)
    return _expand(Z, model.params.degree) @ model.coef + model.intercept
