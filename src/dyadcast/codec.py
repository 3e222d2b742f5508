"""JSON form of the saved dataclasses, and the checks on declared types.

Encoding walks ``dataclasses.fields``: keys in field order, tuples as
lists, an array in a field declared ``np.ndarray`` as a bare nested list
and any other array (in a free-form dict) as ``{"__array__": ...}``.
Decoding reverses that (arrays as float, or the ``dtype`` in the field's
metadata); a missing key takes the default, an unknown key is an error,
and every value must pass ``check``. Each bound is declared once, as an
``Annotated`` alias typed on the config field and on the keyword of the
function that uses it, so decoding, ``check_fields`` and ``checked`` give
the same message, e.g. ``tune_folds must be >= 2, got 1``.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import types
import typing
from dataclasses import dataclass, fields, is_dataclass

import numpy as np


@dataclass(frozen=True)
class Bound:
    """The range lo..hi (ends excluded when open) of a number or a length."""

    lo: float
    hi: float = math.inf
    open: bool = False

    def __contains__(self, x) -> bool:
        return self.lo < x < self.hi if self.open else self.lo <= x <= self.hi

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>' if self.open else '>='} {self.lo}"
        left, right = "()" if self.open else "[]"
        return f"in {left}{self.lo}, {self.hi}{right}"


T = typing.TypeVar("T")
# the bounds shared by config fields and the keywords of the functions
Positive = typing.Annotated[int, Bound(1)]
Count = typing.Annotated[int, Bound(0)]
NonNegative = typing.Annotated[float, Bound(0)]
Share = typing.Annotated[float, Bound(0, 1)]
Folds = typing.Annotated[int, Bound(2)]
Level = typing.Annotated[float, Bound(0, 1, open=True)]
NonEmpty = typing.Annotated[tuple[T, ...], Bound(1)]


@functools.cache
def _types(cls) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


def _unwrap(tp):
    """(tp without Annotated and Optional, its Bounds, whether None is ok)."""
    bounds = ()
    if typing.get_origin(tp) is typing.Annotated:
        tp, *bounds = typing.get_args(tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        inner, more, _ = _unwrap(inner)
        return inner, (*bounds, *more), True
    return tp, tuple(bounds), False


def encode(value):
    """value as JSON-ready dicts, lists and scalars."""
    if is_dataclass(value):
        types_ = _types(type(value))
        return {
            f.name: getattr(value, f.name).tolist() if types_[f.name] is np.ndarray
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
    non-object, an unknown key or a value that fails ``check`` raises
    error, naming the object by label (default: the class name); nested
    objects and values are named by field path."""
    label = label or cls.__name__
    if not isinstance(obj, dict):
        raise error(f"{label} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise error(f"unknown {label} keys: {sorted(unknown)}")
    types_ = _types(cls)
    return cls(**{
        f.name: _field(f, types_[f.name], obj[f.name], error, _prefix + f.name)
        for f in fields(cls) if f.name in obj
    })


# declared type -> (accepted Python types, name in messages)
_KINDS = {
    tuple: ((list, tuple), "a list"),
    dict: (dict, "an object"),
    float: (numbers.Real, "a number"),
    int: (numbers.Integral, "an integer"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
}


def check(tp, value, error, path):
    """Raise error, naming path, unless value matches the declared type tp:
    its kind (a bool is no number), each tuple element and dict value, the
    members of a Literal and each Bound; ``X | None`` also takes None."""
    tp, bounds, optional = _unwrap(tp)
    if value is None and optional:
        return
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin is typing.Literal:
        if value not in args:
            raise error(f"{path} must be one of {list(args)}, got {value!r}")
        return
    if is_dataclass(tp):
        if not isinstance(value, tp):
            raise error(f"{path} must be a {tp.__name__}, got {value!r}")
        check_fields(value, error, path + ".")
        return
    if origin in _KINDS:
        accepted, name = _KINDS[origin]
        if not isinstance(value, accepted) or (isinstance(value, bool) and origin is not bool):
            raise error(f"{path} must be {name}, got {value!r}")
    if origin is tuple and args:
        if args[-1] is not Ellipsis and len(args) != len(value):
            raise error(f"{path} must have {len(args)} items, got {len(value)}")
        for k, item in enumerate(value):
            check(args[0] if args[-1] is Ellipsis else args[k], item, error, f"{path}[{k}]")
    if origin is dict and args:
        for key, item in value.items():
            check(args[1], item, error, f"{path}.{key}")
    for bound in bounds:
        if origin is tuple and len(value) not in bound:
            raise error(f"{path} must have {bound} items, got {len(value)}")
        if origin is not tuple and value not in bound:
            raise error(f"{path} must be {bound}, got {value!r}")


def check_fields(obj, error, prefix=""):
    """check each field of the dataclass instance obj, nested ones too."""
    types_ = _types(type(obj))
    for f in fields(obj):
        check(types_[f.name], getattr(obj, f.name), error, prefix + f.name)


def checked(fn):
    """fn, passing each argument declared with a Bound or a Literal through
    ``check`` (ValueError) on every call; hints are read on the first."""
    signature = inspect.signature(fn)

    @functools.cache
    def declared():
        hints = typing.get_type_hints(fn, include_extras=True)
        return {
            name: tp for name, tp in hints.items() if name in signature.parameters
            and any(typing.get_origin(t) in (typing.Annotated, typing.Literal)
                    for t in (tp, *typing.get_args(tp)))
        }

    @functools.wraps(fn)
    def call(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        for name, tp in declared().items():
            if name in arguments:
                check(tp, arguments[name], ValueError, name)
        return fn(*args, **kwargs)

    return call


def _field(f, tp, value, error, path):
    base = _unwrap(tp)[0]
    if is_dataclass(base):
        return decode(base, value, error, path, path + ".")
    check(tp, value, error, path)
    if base is np.ndarray:
        return np.array(value, dtype=f.metadata.get("dtype", float))
    if (typing.get_origin(base) or base) is tuple:
        return _tuples(value)
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
