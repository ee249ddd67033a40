"""Self-describing JSON serialization for fitted models.

Floats survive the JSON round trip exactly (repr-based encoding), so a
loaded model predicts bit-identically to the one that was saved.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

import numpy as np

from ..errors import ParseError
from .gbt import GbtModel, GbtNode, GbtParams
from .mf import MfModel, MfParams
from .poly import PolyModel, PolyParams

FORMAT_VERSION = 1


def model_to_dict(model: GbtModel | PolyModel | MfModel) -> dict[str, Any]:
    if isinstance(model, GbtModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "gbt",
            "params": asdict(model.params),
            "fingerprint": model.fingerprint,
            "base_score": model.base_score,
            "eta": model.eta,
            "feature_names": list(model.feature_names),
            "trees": [[asdict(node) for node in nodes] for nodes in model.trees],
            "gain_totals": model.gain_totals,
            "train_rmse": model.train_rmse,
        }
    if isinstance(model, PolyModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "poly",
            "params": asdict(model.params),
            "fingerprint": model.fingerprint,
            "terms": [list(t) for t in model.terms],
            "intercept": model.intercept,
            "coef": model.coef.tolist(),
            "impute": model.impute.tolist(),
            "mean": model.mean.tolist(),
            "std": model.std.tolist(),
            "converged": model.converged,
            "n_sweeps": model.n_sweeps,
        }
    if isinstance(model, MfModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "mf",
            "params": asdict(model.params),
            "fingerprint": model.fingerprint,
            "mu": model.mu,
            "w": {k: v.tolist() for k, v in model.w.items()},
            "h": {k: v.tolist() for k, v in model.h.items()},
            "b_s": {k: float(v) for k, v in model.b_s.items()},
            "b_t": {k: float(v) for k, v in model.b_t.items()},
            "theta": model.theta.tolist(),
            "impute": model.impute.tolist(),
            "mean": model.mean.tolist(),
            "std": model.std.tolist(),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _check_tree(nodes: list[GbtNode], n_features: int) -> None:
    """Reject a tree with an internal node whose feature does not exist or whose
    child index does not lie between its own index and the end of the tree.

    The grower appends both children after their parent, so in every tree it
    writes each child index exceeds its parent's, which rules out cycles.
    """
    if not nodes:
        raise ParseError("empty tree")
    for i, node in enumerate(nodes):
        if node.is_leaf:
            continue
        if node.feature >= n_features:
            raise ParseError(f"node {i}: feature {node.feature} outside [0, {n_features})")
        for child in (node.left, node.right):
            if not i < child < len(nodes):
                raise ParseError(f"node {i}: child {child} outside ({i}, {len(nodes)})")


def model_from_dict(obj: dict[str, Any]) -> GbtModel | PolyModel | MfModel:
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    kind = obj.get("kind")
    if kind == "gbt":
        feature_names = tuple(obj["feature_names"])
        trees = [[GbtNode(**node) for node in nodes] for nodes in obj["trees"]]
        for nodes in trees:
            _check_tree(nodes, len(feature_names))
        return GbtModel(
            base_score=float(obj["base_score"]),
            eta=float(obj["eta"]),
            trees=trees,
            feature_names=feature_names,
            fingerprint=obj["fingerprint"],
            params=GbtParams(**obj["params"]),
            gain_totals=dict(obj["gain_totals"]),
            train_rmse=list(obj["train_rmse"]),
        )
    if kind == "poly":
        return PolyModel(
            params=PolyParams(**obj["params"]),
            terms=[tuple(t) for t in obj["terms"]],
            intercept=float(obj["intercept"]),
            coef=np.asarray(obj["coef"], dtype=np.float64),
            impute=np.asarray(obj["impute"], dtype=np.float64),
            mean=np.asarray(obj["mean"], dtype=np.float64),
            std=np.asarray(obj["std"], dtype=np.float64),
            fingerprint=obj["fingerprint"],
            converged=bool(obj["converged"]),
            n_sweeps=int(obj["n_sweeps"]),
        )
    if kind == "mf":
        return MfModel(
            params=MfParams(**obj["params"]),
            mu=float(obj["mu"]),
            w={k: np.asarray(v, dtype=np.float64) for k, v in obj["w"].items()},
            h={k: np.asarray(v, dtype=np.float64) for k, v in obj["h"].items()},
            b_s={k: float(v) for k, v in obj["b_s"].items()},
            b_t={k: float(v) for k, v in obj["b_t"].items()},
            theta=np.asarray(obj["theta"], dtype=np.float64),
            impute=np.asarray(obj["impute"], dtype=np.float64),
            mean=np.asarray(obj["mean"], dtype=np.float64),
            std=np.asarray(obj["std"], dtype=np.float64),
            fingerprint=obj["fingerprint"],
        )
    raise ParseError(f"unknown model kind {kind!r}")


def save_model(model: GbtModel | PolyModel | MfModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> GbtModel | PolyModel | MfModel:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not a valid model file: {exc}") from exc
    try:
        return model_from_dict(obj)
    except (ParseError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a valid model file: {type(exc).__name__}: {exc}") from exc
