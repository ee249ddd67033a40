"""The JSON value each dataclass field accepts, decided once per annotation.

FIELD_TYPES maps a field's annotation, the string that `from __future__
import annotations` leaves on a dataclass, to a FieldType: a check that a
value has that type and a conversion from an accepted JSON value to the
field's value. A container's entry also names its items' annotation, whose
entry checks and converts each item in turn. Nothing is coerced: an int
takes an integer but not a bool, a float any real number but not a bool, a
bool only true or false and a str only a string.

check_field_types holds a constructed params object to the checks, and
from_json builds a dataclass from a JSON object through the checks and
conversions, so the CLI config, the params it names, the records of a JSONL
file, the lines of an embeddings file and the fields of a model file follow
one set of rules. A key that names no field is an error, never ignored.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable

import numpy as np


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_list(value) -> bool:
    return isinstance(value, list)


def _is_object(value) -> bool:
    return isinstance(value, dict)


@dataclass(frozen=True)
class FieldType:
    check: Callable[[Any], bool]
    convert: Callable[[Any], Any] = lambda value: value
    items: str | None = None  # annotation of a JSON list's items or a JSON object's values


def _or_none(ftype: FieldType) -> FieldType:
    """The entry of `annotation | None`, from the entry of annotation."""
    return FieldType(lambda value: value is None or ftype.check(value),
                     lambda value: None if value is None else ftype.convert(value), ftype.items)


# numpy integer and float scalars register as Integral and Real, so params built in code may hold them.
FIELD_TYPES: dict[str, FieldType] = {
    "bool": FieldType(lambda value: isinstance(value, bool)),
    "int": FieldType(_is_int),
    "float": FieldType(_is_real, float),
    "str": FieldType(lambda value: isinstance(value, str)),
    "dict": FieldType(_is_object),
    "list[float]": FieldType(_is_list, list, "float"),
    "list[dict]": FieldType(_is_list, list, "dict"),
    "tuple[float, ...]": FieldType(_is_list, tuple, "float"),
    "tuple[str, ...]": FieldType(_is_list, tuple, "str"),
    # a path or a list of paths, read as a tuple of paths
    "str | tuple[str, ...]": FieldType(lambda value: isinstance(value, (str, list)),
                                       lambda value: (value,) if isinstance(value, str) else tuple(value), "str"),
    "list[tuple[str, ...]]": FieldType(_is_list, list, "tuple[str, ...]"),
    "np.ndarray": FieldType(_is_list, lambda items: np.array(items, dtype=np.float64), "float"),
    "dict[str, float]": FieldType(_is_object, dict, "float"),
    "dict[str, float | None]": FieldType(_is_object, dict, "float | None"),
    "dict[str, np.ndarray]": FieldType(_is_object, dict, "np.ndarray"),
}
FIELD_TYPES.update({f"{name} | None": _or_none(FIELD_TYPES[name]) for name in (
    "int", "float", "str", "dict", "list[dict]", "tuple[str, ...]", "str | tuple[str, ...]", "list[tuple[str, ...]]")})


def check_field_types(obj) -> None:
    """Raise ValueError naming the first field of a params object whose value fails its entry's check.

    A container's check looks at the container, not at its items. A float
    field must also be finite: no solver setting means anything as NaN or
    an infinity.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not FIELD_TYPES[f.type].check(value):
            raise ValueError(f"{f.name} must be of type {f.type}, not {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, not {value!r}")


def read(annotation: str, value, where: str):
    """The field value of a JSON value, through the entry of its annotation; where names it in errors."""
    ftype = FIELD_TYPES[annotation]
    if not ftype.check(value):
        raise ValueError(f"{where} must be of type {annotation}, not {value!r}")
    if ftype.items is not None and isinstance(value, (dict, list)):
        pairs = value.items() if isinstance(value, dict) else enumerate(value)
        items = {key: read(ftype.items, item, f"{where}[{key!r}]") for key, item in pairs}
        value = items if isinstance(value, dict) else list(items.values())
    try:
        return ftype.convert(value)
    except (OverflowError, TypeError, ValueError) as exc:  # an int too large for a float, bad params
        raise ValueError(f"{where}: {exc}") from exc


def check_keys(cls, obj: dict) -> None:
    """Raise ValueError naming the first key of obj that names no field of the dataclass cls."""
    names = {f.name for f in fields(cls)}
    unknown = [key for key in obj if key not in names]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")


def from_json(cls, obj):
    """An instance of the dataclass cls whose fields are read from the JSON object obj.

    An absent key takes the field's default. Raises ValueError naming the
    key that names no field of cls, or naming the field, and the key or
    index inside a container, of a missing required value or a value of the
    wrong type.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a {cls.__name__} must be a JSON object, not {obj!r}")
    check_keys(cls, obj)
    values = {}
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = read(f.type, obj[f.name], f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{f.name} is missing")
    return cls(**values)
