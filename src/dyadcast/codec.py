"""JSON form of the saved dataclasses: configs, specs, fits and models.

One set of rules, driven by ``dataclasses.fields`` and the declared field
types. Encoding: keys are the fields in order, tuples become lists, an
array in a field declared ``np.ndarray`` becomes a bare nested list, and
an array anywhere else (a free-form dict) becomes ``{"__array__": ...}``.
Decoding: dataclass fields recurse, ``tuple`` fields become tuples all the
way down, arrays come back as float (or as the ``dtype`` in the field's
metadata), a missing key takes the field's default, and an unknown key is
an error. A value must match its declared type: a list for ``tuple``, an
object for ``dict``, a number for ``float`` (an integer will do), an
integer for ``int`` and a boolean for ``bool`` (a boolean is not a
number), a string for ``str``; ``X | None`` also takes null.
"""

from __future__ import annotations

import functools
import numbers
import typing
from dataclasses import fields, is_dataclass

import numpy as np


@functools.cache
def _types(cls) -> dict:
    return typing.get_type_hints(cls)


def encode(value):
    """value as JSON-ready dicts, lists and scalars."""
    if is_dataclass(value):
        types = _types(type(value))
        return {
            f.name: getattr(value, f.name).tolist() if types[f.name] is np.ndarray
            else encode(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, np.ndarray):
        return {"__array__": value.tolist()}
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def decode(cls, obj, error=ValueError, label=None, _prefix=""):
    """An instance of the dataclass cls from its JSON object obj. A
    non-object or an unknown key raises error, naming the object by label
    (default: the class name); nested objects are named by field path."""
    label = label or cls.__name__
    if not isinstance(obj, dict):
        raise error(f"{label} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise error(f"unknown {label} keys: {sorted(unknown)}")
    types = _types(cls)
    return cls(**{
        f.name: _field(f, types[f.name], obj[f.name], error, _prefix + f.name)
        for f in fields(cls) if f.name in obj
    })


# declared type -> (accepted Python types, name in messages)
_KINDS = {
    tuple: (list, "a list"),
    dict: (dict, "an object"),
    float: (numbers.Real, "a number"),
    int: (numbers.Integral, "an integer"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
}


def check(tp, value, error, path):
    """Raise error, naming path, unless value matches the declared type tp."""
    args = typing.get_args(tp)
    if type(None) in args:
        if value is None:
            return
        (tp,) = (a for a in args if a is not type(None))
    if tp in _KINDS:
        accepted, name = _KINDS[tp]
        if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
            raise error(f"{path} must be {name}, got {value!r}")


def _field(f, tp, value, error, path):
    check(tp, value, error, path)
    if tp is np.ndarray:
        return np.array(value, dtype=f.metadata.get("dtype", float))
    if tp is tuple:
        return _tuples(value)
    if isinstance(tp, type) and is_dataclass(tp):
        return decode(tp, value, error, path, path + ".")
    return _free(value)


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _free(value):
    if isinstance(value, dict):
        if "__array__" in value:
            return np.array(value["__array__"], dtype=float)
        return {k: _free(v) for k, v in value.items()}
    return [_free(v) for v in value] if isinstance(value, list) else value


class Saved:
    """Base for dataclasses saved as JSON: to_json/from_json by the codec."""

    def to_json(self) -> dict:
        return encode(self)

    @classmethod
    def from_json(cls, obj):
        return decode(cls, obj)
