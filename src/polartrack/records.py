"""Parameter records and their strict JSON codec.

A record is a dataclass whose fields are its JSON schema. ``to_dict``
writes the fields in declaration order; ``from_dict`` reads them back:
omitted fields take their defaults, unknown keys and values of the wrong
JSON type are rejected (an int stands in for a float, nothing else
converts), and every error names the dotted path of the offending field,
e.g. ``'rig.views[0].fov'``.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing


class FieldError(ValueError):
    """A value that does not fit its field; the message leads with the
    field's dotted path."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"'{path}': {msg}" if path else msg)


# how an error names the JSON value a type expects
JSON_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "true or false",
              int: "an integer", float: "a number"}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@functools.cache
def _schema(cls) -> dict:
    """Field name -> (resolved annotation, required), once per class."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    }


def check_keys(d, allowed, path: str = "") -> dict:
    """``d`` as a JSON object holding no key outside ``allowed``."""
    d = check(dict, d, path)
    for key in d:
        if key not in allowed:
            raise FieldError(_join(path, key), f"unknown key, expected one of {list(allowed)}")
    return d


def check(tp, value, path: str = ""):
    """``value`` read as the annotation ``tp``: a record, ``Optional[X]``,
    ``tuple[X, ...]``, ``tuple[X, Y]``, ``list[X]``, ``float`` (an int or a
    float, not a bool) or a plain type taken exactly (a bool is not an
    int). Sequences accept a list or a tuple and keep ``tp``'s kind."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return check(tp, value, path)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise FieldError(path, f"expected a list, got {value!r}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise FieldError(path, f"expected {len(args)} items, got {len(value)}")
        else:
            args = args[:1] * len(value)
        return origin(check(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if issubclass(tp, Record):
        return tp.from_dict(value, path)
    if tp is float and type(value) is int:
        return float(value)
    if isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
        return value
    raise FieldError(path, f"expected {JSON_NAMES.get(tp, tp.__name__)}, got {value!r}")


class Record:
    """Base of the dataclasses whose fields are plain JSON values,
    optionals, sequences or other records."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d, path: str = ""):
        schema = _schema(cls)
        d = check_keys(d, schema, path)
        kwargs = {}
        for name, (tp, required) in schema.items():
            if name in d:
                kwargs[name] = check(tp, d[name], _join(path, name))
            elif required:
                raise FieldError(_join(path, name), "missing required field")
        try:
            return cls(**kwargs)
        except ValueError as e:  # the record's own range checks
            raise FieldError(path, str(e)) from e
