"""Matrix factorization with context features, trained by seeded SGD.

Prediction for a (source, target, context) triple:

    y_hat = mu + b_s + b_t + w_s . h_t + theta . c

Factors w/h are initialized uniform(-0.01, 0.01); biases and theta start at
zero; mu is the training target mean. Each epoch shuffles the records and
applies per-record updates with learning rate alpha / (1 + lr_decay * epoch),
each parameter block regularized by its own beta. Requires genuinely
two-dimensional records: at least two distinct sources and two distinct
targets; English-centric data (one language pinned on a side) is rejected.
Each row's (source, target) pair is the design matrix's `languages` entry.

The SGD loop runs on Python floats, not numpy: an update touches vectors of
latent_dim and context length (8 and about 18), where each numpy call would
cost more than its arithmetic. Every component is updated as
`p - lr * (err * g + beta * p)` from the pre-update values, and the two dot
products in `err` sum from 0.0 in index order. That order does not depend
on the BLAS build, unlike numpy's `@`, so a fit gives the same floats whatever
BLAS numpy links; against a loop that takes the dots with `@` (kept as
tests/oracles.oracle_mf_sgd) they differ by rounding only. Factors and
theta become float64 arrays at the end, so the model and its file format
are unchanged. Prediction sums in the same order, one expression over all
rows, so it does not depend on the BLAS build either.

Context features reuse the same mean-imputation and standardization as the
polynomial regressor, with statistics from the training split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NotManyToMany, UnknownLanguage
from ..fields import check_field_types
from ..records import DesignMatrix
from .poly import _apply_stats, impute_and_standardize


@dataclass(frozen=True)
class MfParams:
    latent_dim: int = 8
    alpha: float = 0.01
    beta_w: float = 0.1
    beta_h: float = 0.1
    beta_z: float = 0.01
    beta_s: float = 0.01
    beta_t: float = 0.01
    lr_decay: float = 0.001
    iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.latent_dim < 0:
            raise ValueError("latent_dim must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("beta_w", "beta_h", "beta_z", "beta_s", "beta_t", "lr_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class MfModel:
    params: MfParams
    mu: float
    w: dict[str, np.ndarray]  # source factors
    h: dict[str, np.ndarray]  # target factors
    b_s: dict[str, float]
    b_t: dict[str, float]
    theta: np.ndarray
    impute: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    feature_names: tuple[str, ...]


def _languages(matrix: DesignMatrix) -> tuple[list[str], list[str]]:
    """The source and the target language of each row of the matrix."""
    if matrix.languages is None:
        raise ValueError("matrix factorization requires per-record language pairs")
    return [s for s, _ in matrix.languages], [t for _, t in matrix.languages]


def mf_fit(matrix: DesignMatrix, params: MfParams) -> MfModel:
    """Fit on the matrix's language pairs, with its rows as the context."""
    y = matrix.training_targets()
    sources, targets = _languages(matrix)
    n = matrix.n
    src_set = sorted(set(sources))
    tgt_set = sorted(set(targets))
    if len(src_set) < 2 or len(tgt_set) < 2:
        raise NotManyToMany(
            f"need >= 2 distinct source and target languages, got {len(src_set)} source / {len(tgt_set)} target"
        )

    Xs, impute, mean, std = impute_and_standardize(matrix.rows)
    C = (Xs - mean) / std
    k = params.latent_dim
    c_dim = C.shape[1]

    rng = np.random.default_rng(params.seed)
    # row a of W is the factor of src_set[a]; the stream is drawn as one per language would be
    W = rng.uniform(-0.01, 0.01, size=(len(src_set), k)).tolist()
    H = rng.uniform(-0.01, 0.01, size=(len(tgt_set), k)).tolist()
    b_s = [0.0] * len(src_set)
    b_t = [0.0] * len(tgt_set)
    theta = [0.0] * c_dim
    mu = float(np.mean(y))
    src_index = {s: a for a, s in enumerate(src_set)}
    tgt_index = {t: b for b, t in enumerate(tgt_set)}
    src_of = [src_index[s] for s in sources]
    tgt_of = [tgt_index[t] for t in targets]
    y_of = y.tolist()
    C_of = C.tolist()
    beta_w, beta_h, beta_z = params.beta_w, params.beta_h, params.beta_z
    beta_s, beta_t = params.beta_s, params.beta_t
    factor_range, context_range = range(k), range(c_dim)

    for epoch in range(params.iterations):
        lr = params.alpha / (1.0 + params.lr_decay * epoch)
        for i in rng.permutation(n).tolist():
            a, b = src_of[i], tgt_of[i]
            ws, ht, ci = W[a], H[b], C_of[i]
            wh = 0.0
            for f in factor_range:
                wh += ws[f] * ht[f]
            tc = 0.0
            for j in context_range:
                tc += theta[j] * ci[j]
            err = mu + b_s[a] + b_t[b] + wh + tc - y_of[i]
            for f in factor_range:
                w_old, h_old = ws[f], ht[f]
                ws[f] = w_old - lr * (err * h_old + beta_w * w_old)
                ht[f] = h_old - lr * (err * w_old + beta_h * h_old)
            b_s[a] -= lr * (err + beta_s * b_s[a])
            b_t[b] -= lr * (err + beta_t * b_t[b])
            for j in context_range:
                t_old = theta[j]
                theta[j] = t_old - lr * (err * ci[j] + beta_z * t_old)

    W = np.array(W, dtype=np.float64)
    H = np.array(H, dtype=np.float64)
    return MfModel(
        params=params,
        mu=mu,
        w=dict(zip(src_set, W)),
        h=dict(zip(tgt_set, H)),
        b_s=dict(zip(src_set, b_s)),
        b_t=dict(zip(tgt_set, b_t)),
        theta=np.array(theta, dtype=np.float64),
        impute=impute,
        mean=mean,
        std=std,
        feature_names=matrix.schema.columns,
    )


def mf_predict(model: MfModel, matrix: DesignMatrix) -> np.ndarray:
    """The model equation for each row, at the row's own language pair, in the fit's summation order.

    mu + b_s + b_t + w . h + theta . c as one numpy expression over the
    rows, each dot product summed from 0.0 in index order as the fit's err is.
    """
    matrix.schema.check_columns(model.feature_names)
    C = _apply_stats(matrix.rows, model.impute, model.mean, model.std)
    sources, targets = _languages(matrix)
    for source, target in zip(sources, targets):
        if source not in model.w:
            raise UnknownLanguage(f"source language {source!r} was not seen during fit")
        if target not in model.h:
            raise UnknownLanguage(f"target language {target!r} was not seen during fit")
    n, k = len(sources), model.params.latent_dim
    W = np.array([model.w[s] for s in sources], dtype=np.float64).reshape(n, k)
    H = np.array([model.h[t] for t in targets], dtype=np.float64).reshape(n, k)
    wh = np.zeros(n)
    for f in range(k):
        wh += W[:, f] * H[:, f]
    tc = np.zeros(n)
    for j, t in enumerate(model.theta.tolist()):
        tc += t * C[:, j]
    b_s = np.array([model.b_s[s] for s in sources], dtype=np.float64)
    b_t = np.array([model.b_t[t] for t in targets], dtype=np.float64)
    return model.mu + b_s + b_t + wh + tc
