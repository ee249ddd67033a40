"""Polynomial elastic-net regression fit by cyclic coordinate descent.

Columns are mean-imputed (training-split means) and standardized (training-
split statistics), then expanded to all monomials of total degree <= degree
in a fixed order: degree 1 terms first, within each degree the
lexicographic order of nondecreasing index tuples. The objective is

    (1/2n) ||y - X beta - b||^2
        + alpha * (l1_ratio * ||beta||_1 + 0.5 * (1 - l1_ratio) * ||beta||_2^2)

minimized coordinate by coordinate until the largest coefficient change in a
sweep drops below tolerance.

A sweep visits the m terms in order with covariance updates (glmnet;
Friedman, Hastie & Tibshirani, JSS 2010, section 2.2). It starts from
c = P^T r / n, each term's covariance with the residual r, and keeps c
current with the Gram matrix G = P^T P / n, formed once per fit: a
coefficient that moves by delta subtracts delta * G[j] from c, so a visit
makes no pass over the rows, and a zero coefficient whose |c[j]| is within
the l1 penalty cannot move and is skipped. G holds m^2 floats, 14 MB for
the 1329 terms of degree 3 on 18 columns (poly3_default). After the
coordinates, the intercept takes the residual's mean and the residual is
recomputed from scratch, so float drift cannot accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from ..errors import EmptyTrainingSet, SchemaMismatch
from ..fields import check_field_types
from ..records import DesignMatrix


@dataclass(frozen=True)
class PolyParams:
    degree: int = 2
    alpha: float = 0.1
    l1_ratio: float = 0.9
    max_iterations: int = 5000
    tolerance: float = 1e-9
    seed: int = 0  # unused by the deterministic solver; kept for interface symmetry

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
    terms: list[tuple[int, ...]]
    intercept: float
    coef: np.ndarray
    impute: np.ndarray  # per-column training means substituted for missing (NaN) cells
    mean: np.ndarray
    std: np.ndarray
    fingerprint: str
    converged: bool
    n_sweeps: int
    objective_history: list[float] = field(default_factory=list)


def expansion_terms(n_features: int, degree: int) -> list[tuple[int, ...]]:
    """All monomials of total degree 1..degree as nondecreasing index tuples."""
    terms: list[tuple[int, ...]] = []
    for deg in range(1, degree + 1):
        terms.extend(combinations_with_replacement(range(n_features), deg))
    return terms


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


def _expand(Z: np.ndarray, terms: list[tuple[int, ...]]) -> np.ndarray:
    out = np.empty((Z.shape[0], len(terms)), dtype=np.float64)
    for k, term in enumerate(terms):
        col = Z[:, term[0]].copy()
        for j in term[1:]:
            col *= Z[:, j]
        out[:, k] = col
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
    terms = expansion_terms(Xs.shape[1], params.degree)
    P = _expand(Z, terms)
    n, m = P.shape

    col_sq = (P * P).sum(axis=0) / n
    gram = P.T @ P / n  # symmetric, so row j is column j
    l1 = params.alpha * params.l1_ratio
    l2 = params.alpha * (1.0 - params.l1_ratio)
    # a constant term (col_sq 0) never moves
    coords = [(j, float(col_sq[j]), gram[j]) for j in range(m) if col_sq[j] != 0.0]

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
        for j, sq, gram_row in coords:
            old = beta_at[j]
            cj = c_at[j]
            if old == 0.0 and -l1 <= cj <= l1:
                continue  # the soft-threshold keeps it at zero
            rho = cj + sq * old
            if rho > l1:
                new = (rho - l1) / (sq + l2)
            elif rho < -l1:
                new = (rho + l1) / (sq + l2)
            else:
                new = 0.0
            if new != old:
                c -= (new - old) * gram_row
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
        terms=terms,
        intercept=intercept,
        coef=beta,
        impute=impute,
        mean=mean,
        std=std,
        fingerprint=matrix.schema.fingerprint(),
        converged=converged,
        n_sweeps=sweeps,
        objective_history=history,
    )


def poly_predict(model: PolyModel, matrix: DesignMatrix) -> np.ndarray:
    if matrix.schema.fingerprint() != model.fingerprint:
        raise SchemaMismatch("design matrix schema does not match the fitted model")
    Z = _apply_stats(matrix.rows, model.impute, model.mean, model.std)
    return _expand(Z, model.terms) @ model.coef + model.intercept
