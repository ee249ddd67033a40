"""Self-describing JSON serialization for fitted models.

Floats survive the JSON round trip exactly (repr-based encoding), so a
loaded model predicts bit-identically to the one that was saved.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict
from typing import Any

import numpy as np

from ..errors import ParseError
from .gbt import NODE_DTYPE, GbtModel, GbtParams, make_tree
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
            "trees": [[dict(zip(NODE_DTYPE.names, row)) for row in tree.tolist()] for tree in model.trees],
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


# Each node field's JSON types, in NODE_DTYPE order: the array itself would
# truncate a fractional index and read the string "false" as True.
_NODE_JSON_TYPES = [{"i": (int,), "f": (int, float), "b": (bool,)}[NODE_DTYPE[f].kind] for f in NODE_DTYPE.names]


def _load_tree(nodes: list[dict], n_features: int) -> np.recarray:
    """The tree of one node list in a model file.

    Rejects a node whose keys are not exactly the NODE_DTYPE fields or whose
    values have the wrong JSON type, and an internal node whose feature does
    not exist or whose child index does not lie between its own index and the
    end of the tree. The grower appends both children after their parent, so
    in every tree it writes each child index exceeds its parent's. That rules
    out cycles and bounds the passes of the level-by-level predict.
    """
    fields, values = set(NODE_DTYPE.names), operator.itemgetter(*NODE_DTYPE.names)
    rows = []
    for i, node in enumerate(nodes):
        if node.keys() != fields:
            raise ParseError(f"node {i}: keys {sorted(node)} are not {sorted(fields)}")
        rows.append(values(node))
        for name, value, types in zip(NODE_DTYPE.names, rows[-1], _NODE_JSON_TYPES):
            if type(value) not in types:
                raise ParseError(f"node {i}: {name} {value!r} is not of type {NODE_DTYPE[name]}")
    tree = make_tree(rows)
    n = len(tree)
    if n == 0:
        raise ParseError("empty tree")
    feature, left, right = tree["feature"], tree["left"], tree["right"]
    ids = np.arange(n)
    bad_left = (left <= ids) | (left >= n)
    bad_right = (right <= ids) | (right >= n)
    bad = np.flatnonzero((feature >= 0) & ((feature >= n_features) | bad_left | bad_right))
    if bad.size:
        i = int(bad[0])
        if feature[i] >= n_features:
            raise ParseError(f"node {i}: feature {feature[i]} outside [0, {n_features})")
        raise ParseError(f"node {i}: child {left[i] if bad_left[i] else right[i]} outside ({i}, {n})")
    return tree


def _same_lengths(**fields) -> None:
    lengths = {name: len(value) for name, value in fields.items()}
    if len(set(lengths.values())) > 1:
        raise ParseError(f"lengths differ: {lengths}")


def model_from_dict(obj: dict[str, Any]) -> GbtModel | PolyModel | MfModel:
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    kind = obj.get("kind")
    if kind == "gbt":
        feature_names = tuple(obj["feature_names"])
        return GbtModel(
            base_score=float(obj["base_score"]),
            eta=float(obj["eta"]),
            trees=[_load_tree(nodes, len(feature_names)) for nodes in obj["trees"]],
            feature_names=feature_names,
            fingerprint=obj["fingerprint"],
            params=GbtParams(**obj["params"]),
            gain_totals=dict(obj["gain_totals"]),
            train_rmse=list(obj["train_rmse"]),
        )
    if kind == "poly":
        model = PolyModel(
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
        _same_lengths(impute=model.impute, mean=model.mean, std=model.std)
        _same_lengths(coef=model.coef, terms=model.terms)
        for term in model.terms:
            if not all(isinstance(i, int) and 0 <= i < len(model.mean) for i in term):
                raise ParseError(f"term {list(term)} indexes a column outside [0, {len(model.mean)})")
        return model
    if kind == "mf":
        model = MfModel(
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
        k = model.params.latent_dim
        for name, factors in (("w", model.w), ("h", model.h)):
            for lang, vector in factors.items():
                if vector.shape != (k,):
                    raise ParseError(f"{name}[{lang!r}] has shape {vector.shape}, latent_dim is {k}")
        if model.b_s.keys() != model.w.keys() or model.b_t.keys() != model.h.keys():
            raise ParseError("the languages of b_s/b_t do not match those of w/h")
        _same_lengths(theta=model.theta, impute=model.impute, mean=model.mean, std=model.std)
        return model
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
