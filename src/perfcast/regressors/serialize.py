"""Self-describing JSON serialization for fitted models.

A model file holds `format_version`, `kind` and every field of the model's
dataclass but `objective_history`. Each fact is stored once, and nothing
that predict or a report can derive is stored: a GBT model's eta is its
params' eta and its gain totals are sums of the node gains
(gbt_gain_totals); a poly model's terms follow from its column count and
degree (PolyModel.terms). It is read back through the field table of
`perfcast.fields`, so every field must have its annotation's JSON type,
with nothing coerced, and any other key is an error; the params object is
built by its own class, which checks its fields against the same table,
and each tree by `_load_tree`.
Checks that span fields follow: GBT node features within the feature
names, one poly coefficient per term, equal lengths, MF factor shapes and
bias languages. Floats survive the JSON round trip exactly (repr-based
encoding), so a loaded model predicts bit-identically to the one that was
saved. A file of another format_version, such as format 1, which also
stored these derived fields, is rejected; retrain to replace it.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, fields, is_dataclass
from functools import partial
from typing import Any

import numpy as np

from ..errors import ParseError, open_text
from ..fields import FIELD_TYPES, FieldType, check_keys, from_json
from .gbt import NODE_DTYPE, GbtModel, GbtParams, make_tree
from .mf import MfModel, MfParams
from .poly import PolyModel, PolyParams, term_count

FORMAT_VERSION = 2

# kind name -> (params class, model class)
KINDS: dict[str, tuple[type, type]] = {
    "gbt": (GbtParams, GbtModel),
    "poly": (PolyParams, PolyModel),
    "mf": (MfParams, MfModel),
}

# params class or model class -> kind name
KIND_OF = {cls: kind for kind, classes in KINDS.items() for cls in classes}

# The poly objective trajectory is not part of the file format.
_UNSAVED = ("objective_history",)


def _to_json(value):
    """A field value as the JSON value the field table reads back."""
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, np.recarray):
        return [dict(zip(NODE_DTYPE.names, row)) for row in value.tolist()]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    return value


def model_to_dict(model: GbtModel | PolyModel | MfModel) -> dict[str, Any]:
    kind = KIND_OF.get(type(model))
    if kind is None or type(model) is not KINDS[kind][1]:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    out = {"format_version": FORMAT_VERSION, "kind": kind}
    for f in fields(model):
        if f.name not in _UNSAVED:
            out[f.name] = _to_json(getattr(model, f.name))
    return out


# Each node field's check, in NODE_DTYPE order: the array itself would
# truncate a fractional index and read the string "false" as True.
_NODE_CHECKS = [FIELD_TYPES[{"i": "int", "f": "float", "b": "bool"}[NODE_DTYPE[name].kind]].check
                for name in NODE_DTYPE.names]


def _load_tree(nodes: list) -> np.recarray:
    """The tree of one node list in a model file.

    Rejects a node that is not an object whose keys are exactly the
    NODE_DTYPE fields or whose values have the wrong JSON type, and an
    internal node whose child index does not lie between its own index and
    the end of the tree. The grower appends both children after their
    parent, so in every tree it writes each child index exceeds its
    parent's. That rules out cycles and bounds the passes of the
    level-by-level predict.
    """
    names, values = set(NODE_DTYPE.names), operator.itemgetter(*NODE_DTYPE.names)
    rows = []
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ValueError(f"node {i}: {node!r} is not a JSON object")
        if node.keys() != names:
            raise ValueError(f"node {i}: keys {sorted(node)} are not {sorted(names)}")
        rows.append(values(node))
        for name, value, check in zip(NODE_DTYPE.names, rows[-1], _NODE_CHECKS):
            if not check(value):
                raise ValueError(f"node {i}: {name} {value!r} is not of type {NODE_DTYPE[name]}")
    tree = make_tree(rows)
    n = len(tree)
    if n == 0:
        raise ValueError("empty tree")
    left, right, ids = tree["left"], tree["right"], np.arange(n)
    bad_left = (left <= ids) | (left >= n)
    bad = np.flatnonzero((tree["feature"] >= 0) & (bad_left | (right <= ids) | (right >= n)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"node {i}: child {left[i] if bad_left[i] else right[i]} outside ({i}, {n})")
    return tree


def _params(cls, value: dict):
    """A params object of class cls, built by cls from a JSON object; a key cls has no field for is a ValueError."""
    check_keys(cls, value)
    return cls(**value)


# The field table sits below the regressors, so the annotations only models
# use are added to it here: a params object, built by its own class (which
# checks its fields against the table) so that {"eta": 1} keeps its bytes,
# and trees, each built by _load_tree.
FIELD_TYPES.update({
    params_cls.__name__: FieldType(lambda value: isinstance(value, dict), partial(_params, params_cls))
    for params_cls, _ in KINDS.values()
})
FIELD_TYPES["np.recarray"] = FieldType(lambda value: isinstance(value, list), _load_tree)
FIELD_TYPES["list[np.recarray]"] = FieldType(lambda value: isinstance(value, list), list, "np.recarray")


def _same_lengths(**arrays) -> None:
    lengths = {name: len(value) for name, value in arrays.items()}
    if len(set(lengths.values())) > 1:
        raise ParseError(f"lengths differ: {lengths}")


def _check_across_fields(model: GbtModel | PolyModel | MfModel) -> None:
    """Raise ParseError for fields of the right types that do not fit together."""
    if isinstance(model, GbtModel):
        n_features = len(model.feature_names)
        for t, tree in enumerate(model.trees):
            bad = np.flatnonzero(tree["feature"] >= n_features)
            if bad.size:
                i = int(bad[0])
                raise ParseError(f"trees[{t}]: node {i}: feature {tree['feature'][i]} outside [0, {n_features})")
    elif isinstance(model, PolyModel):
        _same_lengths(impute=model.impute, mean=model.mean, std=model.std)
        n_terms = term_count(len(model.mean), model.params.degree)
        if len(model.coef) != n_terms:
            raise ParseError(f"coef has {len(model.coef)} entries, but degree {model.params.degree}"
                             f" on {len(model.mean)} columns has {n_terms} terms")
    else:
        k = model.params.latent_dim
        for name, factors in (("w", model.w), ("h", model.h)):
            for lang, vector in factors.items():
                if vector.shape != (k,):
                    raise ParseError(f"{name}[{lang!r}] has shape {vector.shape}, latent_dim is {k}")
        if model.b_s.keys() != model.w.keys() or model.b_t.keys() != model.h.keys():
            raise ParseError("the languages of b_s/b_t do not match those of w/h")
        _same_lengths(theta=model.theta, impute=model.impute, mean=model.mean, std=model.std)


def model_from_dict(obj: dict[str, Any]) -> GbtModel | PolyModel | MfModel:
    """The model of a model file's JSON object; ParseError or ValueError names what is wrong."""
    if not isinstance(obj, dict):
        raise ParseError("a model file must hold a JSON object")
    version = obj.get("format_version")
    if not FIELD_TYPES["int"].check(version) or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ParseError(f"unknown model kind {kind!r}")
    fields_only = {key: value for key, value in obj.items() if key not in ("format_version", "kind")}
    model = from_json(KINDS[kind][1], fields_only)
    _check_across_fields(model)
    return model


def save_model(model: GbtModel | PolyModel | MfModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> GbtModel | PolyModel | MfModel:
    with open_text(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not a valid model file: {exc}") from exc
    try:
        return model_from_dict(obj)
    except (ParseError, ValueError) as exc:
        raise ParseError(f"{path}: not a valid model file: {type(exc).__name__}: {exc}") from exc
