"""Regressor zoo: boosted trees, polynomial elastic net, matrix factorization.

Every decision that depends on the regressor kind is made in this package.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import UnknownLanguage
from ..records import DesignMatrix
from .gbt import GbtModel, GbtParams, gbt_fit, gbt_gain_totals, gbt_importance, gbt_predict, tree_depth
from .mf import MfModel, MfParams, mf_fit, mf_predict
from .poly import PolyModel, PolyParams, poly_fit, poly_predict
from .presets import PRESETS, get_preset
from .serialize import KIND_OF, KINDS, load_model, model_from_dict, model_to_dict, save_model

AnyParams = GbtParams | PolyParams | MfParams
AnyModel = GbtModel | PolyModel | MfModel


def params_kind(obj: AnyParams | AnyModel) -> str:
    """Kind name of a params object or a fitted model."""
    return KIND_OF[type(obj)]


def with_seed(params: AnyParams, seed: int) -> AnyParams:
    """params with seed, for a kind that reads one (its params class has a seed field); other params unchanged."""
    return replace(params, seed=seed) if hasattr(params, "seed") else params


def check_languages(
    params: AnyParams,
    train_pairs: list[tuple[str, str]],
    eval_pairs: list[tuple[str, str]],
    where: str,
) -> None:
    """Refuse a fit on train_pairs that could not predict eval_pairs.

    Only MF keeps per-language parameters: it has no factor or bias for a
    source or target language its training side lacks. Other kinds pass.
    """
    if not isinstance(params, MfParams):
        return
    for side, pos in (("source", 0), ("target", 1)):
        unseen = sorted({pair[pos] for pair in eval_pairs} - {pair[pos] for pair in train_pairs})
        if unseen:
            raise UnknownLanguage(
                f"{side} language {unseen[0]!r} in {where} is not a {side} language of its"
                " training side; matrix factorization cannot predict it"
            )


def fitted_from(params: AnyParams, model: AnyModel) -> GbtModel | None:
    """The model fit_model(params, m) returns, given model = fit_model(model.params, m); None if only a fit can tell.

    Only depth_wise GBT params that equal the model's apart from max_depth
    are read off a fit. Depth-wise growth searches each level the same way
    under every cap, and neither the row and column draws nor the gradients
    read the cap, so if the fit's deepest tree has t levels of splits, its
    trees are the fit under any cap >= t; but if t reached the fit's cap,
    the cap may have stopped the growth, and a higher cap needs a fit.
    """
    if not (isinstance(params, GbtParams) and isinstance(model, GbtModel)) or params.growth != "depth_wise":
        return None
    fit = model.params
    if replace(params, max_depth=fit.max_depth) != fit:
        return None
    t = max(map(tree_depth, model.trees))
    if t > params.max_depth or (params.max_depth > fit.max_depth and t >= fit.max_depth):
        return None
    return replace(model, params=params)


# Every solver is fit(matrix, params) and predict(model, matrix). The tables
# are built on each call from this module's namespace, so a caller that
# rebinds e.g. `perfcast.regressors.gbt_fit` sees every fit.
def fit_model(params: AnyParams, matrix: DesignMatrix) -> AnyModel:
    return {GbtParams: gbt_fit, PolyParams: poly_fit, MfParams: mf_fit}[type(params)](matrix, params)


def predict_model(model: AnyModel, matrix: DesignMatrix) -> np.ndarray:
    return {GbtModel: gbt_predict, PolyModel: poly_predict, MfModel: mf_predict}[type(model)](model, matrix)


__all__ = [
    "GbtModel", "GbtParams", "gbt_fit", "gbt_gain_totals", "gbt_importance", "gbt_predict",
    "MfModel", "MfParams", "mf_fit", "mf_predict",
    "PolyModel", "PolyParams", "poly_fit", "poly_predict",
    "PRESETS", "get_preset", "load_model", "save_model", "model_to_dict", "model_from_dict",
    "KINDS", "check_languages", "fit_model", "fitted_from", "predict_model", "params_kind", "with_seed",
]
