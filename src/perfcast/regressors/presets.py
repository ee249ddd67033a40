"""Named hyperparameter presets for the regressor zoo.

The gbt presets carry the published per-task tuning for the depth-wise
booster (values that were search upper bounds, like n_estimators and eta,
are stored as-is); lgbm_default configures the leaf-wise booster;
poly_default and mf_default cover the remaining regressors.
"""

from __future__ import annotations

from ..errors import ConfigError
from .gbt import GbtParams
from .mf import MfParams
from .poly import PolyParams

PRESETS: dict[str, GbtParams | PolyParams | MfParams] = {
    "mt_english_m2m100": GbtParams(
        n_estimators=5000, eta=0.1, min_child_weight=5.0, max_depth=5, gamma=0.0,
        subsample=0.6, colsample_bytree=0.83, reg_alpha=0.2, reg_lambda=0.1,
    ),
    "mt_english_nllb": GbtParams(
        n_estimators=5000, eta=0.1, min_child_weight=4.2, max_depth=4, gamma=0.0,
        subsample=0.94, colsample_bytree=0.82, reg_alpha=0.32, reg_lambda=0.37,
    ),
    "mt_english_m2m100_comet": GbtParams(
        n_estimators=5000, eta=0.1, min_child_weight=3.2, max_depth=3, gamma=0.0,
        subsample=0.6, colsample_bytree=0.9, reg_alpha=0.11, reg_lambda=0.48,
    ),
    "mt_english_nllb_comet": GbtParams(
        n_estimators=5000, eta=0.1, min_child_weight=1.1, max_depth=5, gamma=0.0,
        subsample=1.0, colsample_bytree=0.86, reg_alpha=0.0, reg_lambda=0.05,
    ),
    "mt_many_m2m100": GbtParams(
        n_estimators=2000, eta=0.1, min_child_weight=5.0, max_depth=3, gamma=0.0,
        subsample=0.7, colsample_bytree=0.6, reg_alpha=0.0, reg_lambda=0.35,
    ),
    "mt_many_nllb": GbtParams(
        n_estimators=2000, eta=0.1, min_child_weight=2.5, max_depth=3, gamma=0.0,
        subsample=0.9, colsample_bytree=0.6, reg_alpha=0.0, reg_lambda=0.15,
    ),
    "intent_aya": GbtParams(
        n_estimators=5000, eta=0.1, min_child_weight=3.0, max_depth=3, gamma=0.1,
        subsample=0.85, colsample_bytree=1.0, reg_alpha=0.1, reg_lambda=0.2,
    ),
    "intent_llama": GbtParams(
        n_estimators=5000, eta=0.1, min_child_weight=3.0, max_depth=3, gamma=0.1,
        subsample=0.6, colsample_bytree=0.95, reg_alpha=0.1, reg_lambda=0.5,
    ),
    "lgbm_default": GbtParams(
        n_estimators=100, eta=0.3, min_child_weight=0.001, max_depth=10, gamma=0.0,
        subsample=1.0, colsample_bytree=1.0, reg_alpha=0.1, reg_lambda=0.1,
        growth="leaf_wise", num_leaves=64, min_child_samples=20, max_bin=200000,
    ),
    "poly_default": PolyParams(degree=2, alpha=0.1, l1_ratio=0.9),
    "poly3_default": PolyParams(degree=3, alpha=0.1, l1_ratio=0.9),
    "mf_default": MfParams(
        latent_dim=8, alpha=0.01, beta_w=0.1, beta_h=0.1, beta_z=0.01,
        beta_s=0.01, beta_t=0.01, lr_decay=0.001, iterations=2000,
    ),
}


def get_preset(name: str) -> GbtParams | PolyParams | MfParams:
    try:
        return PRESETS[name]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None
