"""Records and their strict JSON codec.

A record is a dataclass whose fields are its JSON schema. ``to_dict``
writes the fields in declaration order; ``from_dict`` reads them back:
omitted fields take their defaults, unknown keys and values of the wrong
JSON type are rejected (an int stands in for a float, nothing else
converts), and every error names the dotted path of the offending field,
e.g. ``'rig.views[0].fov'``.

A log states every setting it ran with, so it is read ``complete``:
every field of every record in it is required, defaults or not. A
record's own checks raise ``FieldError``s naming their field, so a value
out of range is reported by its dotted path just like one of the wrong
type.

Episode logs are read and written a frame at a time, so the reader of
each annotation and the fields of each record class are worked out once
and cached.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import types
import typing


class FieldError(ValueError):
    """A value that does not fit its field; the message leads with the
    field's dotted path."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"'{path}': {msg}" if path else msg)
        self.path, self.msg = path, msg

    def within(self, outer: str) -> "FieldError":
        """This error as seen from the value that holds the faulty one
        under ``outer``: a field name, a dotted path or ``[index]``."""
        if not outer:
            return self
        sep = "" if not self.path or self.path.startswith("[") else "."
        return FieldError(outer + sep + self.path, self.msg)


# how an error names the JSON value a type expects
JSON_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "true or false",
              int: "an integer", float: "a number"}
# the JSON types of single values, which sequences test in one pass
_PLAIN = {float, int, bool, str}


def _plain_row(tp):
    """The item types of ``tp`` if it is a fixed tuple of plain JSON
    values, else None."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and Ellipsis not in args and _PLAIN.issuperset(args):
        return args
    return None


@functools.cache
def _reader(tp, complete: bool = False):
    """The function that reads a JSON value as the annotation ``tp``: a
    record, ``Optional[X]``, ``tuple[X, ...]``, ``tuple[X, Y]``,
    ``list[X]``, ``float`` (an int or a float, not a bool) or a plain type
    taken exactly (a bool is not an int). Sequences accept a list or a
    tuple and keep ``tp``'s kind. With ``complete``, records read have no
    optional fields. Errors are ``FieldError``s whose path is relative to
    the value read."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        read = _reader(inner, complete)
        return lambda v: None if v is None else read(v)
    if origin in (tuple, list):
        return _sequence_reader(tp, complete)
    if issubclass(tp, Record):
        return _record_reader(tp, complete)
    name = JSON_NAMES.get(tp, tp.__name__)

    def read_value(v):
        if isinstance(v, tp) and (tp is bool or not isinstance(v, bool)):
            return v
        if tp is float and isinstance(v, int) and not isinstance(v, bool):
            try:
                return float(v)
            except OverflowError:
                raise FieldError("", f"{v} is past a float's range") from None
        raise FieldError("", f"expected {name}, got {v!r}")

    return read_value


def _sequence_reader(tp, complete: bool):
    kind, args = typing.get_origin(tp), typing.get_args(tp)
    fixed = kind is tuple and args[-1] is not Ellipsis
    reads = [_reader(a, complete) for a in args] if fixed else None
    # The common cases take one pass over the items: a JSON list whose
    # items already have their annotated JSON types (``row`` for a fixed
    # tuple, ``scalars`` for a sequence), or a list of such fixed tuples
    # (``rows``: expert_traj, logits_topk).
    row = _plain_row(tp)
    scalars = {args[0]} if not fixed and args[0] in _PLAIN else None
    rows = None if fixed else _plain_row(args[0])

    def read(v):
        if type(v) is list:
            if row is not None and tuple(map(type, v)) == row:
                return kind(v)
            if scalars is not None and scalars.issuperset(map(type, v)):
                return kind(v)
            if rows is not None:
                items = [tuple(r) for r in v if type(r) is list and tuple(map(type, r)) == rows]
                if len(items) == len(v):
                    return kind(items)
        if not isinstance(v, (list, tuple)):
            raise FieldError("", f"expected a list, got {v!r}")
        if fixed and len(v) != len(reads):
            raise FieldError("", f"expected {len(reads)} items, got {len(v)}")
        out = []
        for i, (r, x) in enumerate(zip(reads or itertools.repeat(_reader(args[0], complete)), v)):
            try:
                out.append(r(x))
            except FieldError as e:
                raise e.within(f"[{i}]") from None
        return kind(out)

    return read


def _record_reader(cls, complete: bool):
    hints = typing.get_type_hints(cls)
    schema = {
        f.name: (
            _reader(hints[f.name], complete),
            complete
            or f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    }

    def read(d):
        if not isinstance(d, dict):
            raise FieldError("", f"expected an object, got {d!r}")
        for key in d:
            if key not in schema:
                raise FieldError(key, f"unknown key, expected one of {list(schema)}")
        kwargs = {}
        for name, (read_field, required) in schema.items():
            if name in d:
                try:
                    kwargs[name] = read_field(d[name])
                except FieldError as e:
                    raise e.within(name) from None
            elif required:
                raise FieldError(name, "missing required field")
        return cls(**kwargs)

    return read


def check(tp, value, path: str = "", complete: bool = False):
    """``value`` read as the annotation ``tp`` (see ``_reader``); errors
    name their field under ``path``."""
    try:
        return _reader(tp, complete)(value)
    except FieldError as e:
        raise e.within(path) from None


def check_non_negative(record, name: str) -> None:
    """Raise a ``FieldError`` unless the field ``name`` of ``record`` is
    finite and >= 0 (-0.0 included)."""
    v = getattr(record, name)
    if not (math.isfinite(v) and v >= 0.0):
        raise FieldError(name, f"must be finite and >= 0, got {v!r}")


def _holds_record(tp) -> bool:
    return (isinstance(tp, type) and issubclass(tp, Record)) or any(
        map(_holds_record, typing.get_args(tp))
    )


@functools.cache
def _fields(cls) -> tuple:
    """The field names of a record class, and those of its fields whose
    values may hold records."""
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    return names, [n for n in names if _holds_record(hints[n])]


def _written(v):
    """``v`` with every record in it written as a dict."""
    if isinstance(v, Record):
        return v.to_dict()
    if isinstance(v, (list, tuple)):
        return type(v)(map(_written, v))
    return v


class Record:
    """Base of the dataclasses whose fields are plain JSON values,
    optionals, sequences or other records."""

    def to_dict(self) -> dict:
        """The fields in declaration order, nested records as dicts;
        other values are shared with the record, not copied."""
        names, nested = _fields(type(self))
        d = {name: getattr(self, name) for name in names}
        for name in nested:
            d[name] = _written(d[name])
        return d

    @classmethod
    def from_dict(cls, d, path: str = "", complete: bool = False):
        return check(cls, d, path, complete)

    @classmethod
    def values_of(cls, obj) -> dict:
        """The values ``obj`` holds for this record's fields, by name;
        ``obj`` may be a record of any class that has those fields."""
        return {name: getattr(obj, name) for name in _fields(cls)[0]}
