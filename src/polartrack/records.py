"""Records and their strict JSON codec.

A record is a dataclass whose fields are its JSON schema. ``to_dict``
writes the fields in declaration order; ``from_dict`` reads them back:
omitted fields take their defaults, unknown keys and values of the wrong
JSON type are rejected (an int stands in for a float, nothing else
converts), and every error names the dotted path of the offending field,
e.g. ``'rig.views[0].fov'``.

A log states every setting it ran with, so it is read ``complete``:
every field of every record in it is required, defaults or not.

A field states its domain once, in its annotation: a ``Range`` of
numbers or item counts (``n_angle: Annotated[int, Range(1)]``) or a
``Literal`` of strings. ``Record`` checks every declaration in one place
on construction, ``from_dict`` included, so a value out of its domain
is a ``FieldError`` named like one of the wrong JSON type. A record's
own ``__post_init__`` keeps only rules that join fields and state
derived from them.

Episode logs are read and written a frame at a time, so the reader of
each annotation is worked out once and cached, and the fields of each
record class once, when the class is made.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import sys
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
    if origin is typing.Literal:
        return _reader(type(args[0]), complete)
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


@dataclasses.dataclass(frozen=True)
class Range:
    """The domain of a number, or of a sequence's item count: finite, at
    least ``lo`` (above it if ``lo_open``) and at most ``hi``."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False

    def __contains__(self, v) -> bool:
        # an int past a float's range is not finite, and a string is outside
        try:
            above = self.lo < v if self.lo_open else self.lo <= v
            return above and v <= self.hi and abs(v) <= sys.float_info.max
        except TypeError:
            return False

    def __str__(self):
        lo = "(" if self.lo_open or self.lo == -math.inf else "["
        return f"{lo}{self.lo}, {self.hi}{']' if self.hi < math.inf else ')'}"


def _declares(tp) -> bool:
    """Whether the annotation ``tp`` declares a domain anywhere in it."""
    return typing.get_origin(tp) in (typing.Annotated, typing.Literal) or any(
        map(_declares, typing.get_args(tp)))


def _check_domain(tp, v, path: str) -> None:
    """Raise a ``FieldError`` naming ``path`` unless ``v`` is in the domain
    the annotation ``tp`` declares. ``None`` passes in an optional field,
    and a record has checked itself."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:
        (rng,) = tp.__metadata__
        _check_domain(args[0], v, path)
        if typing.get_origin(args[0]) in (list, tuple):
            if len(v) not in rng:
                raise FieldError(path, f"must hold a count of items in {rng}, got {len(v)}")
        elif v not in rng:
            raise FieldError(path, f"must be a finite number in {rng}, got {v!r}")
    elif origin is typing.Literal and v not in args:
        raise FieldError(path, f"{v!r} is not one of {args}")
    elif origin in (typing.Union, types.UnionType) and v is not None:
        (inner,) = [a for a in args if a is not type(None)]
        _check_domain(inner, v, path)
    elif origin is list or origin is tuple and args[-1] is Ellipsis:
        for i, x in enumerate(v):
            _check_domain(args[0], x, f"{path}[{i}]")


def _holds_record(tp) -> bool:
    return (isinstance(tp, type) and issubclass(tp, Record)) or any(
        map(_holds_record, typing.get_args(tp))
    )


def _written(v):
    """``v`` with every record in it written as a dict."""
    if isinstance(v, Record):
        return v.to_dict()
    if isinstance(v, (list, tuple)):
        return type(v)(map(_written, v))
    return v


class Record:
    """Base of the dataclasses whose fields are plain JSON values,
    optionals, sequences or other records. Construction checks each
    declared domain, then each own ``__post_init__`` of the class and
    its bases, base first; a class with neither runs no check. The
    annotations are read when the class is made, so must name only
    what is defined above it."""

    _rules = ()  # the own __post_init__ of the class and its bases

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__post_init__")
        cls._rules = rules = cls._rules + ((own,) if own else ())
        hints = typing.get_type_hints(cls, include_extras=True)
        # the field names, and those of the fields whose values may hold records
        cls._names = tuple(hints)
        cls._nested = [name for name, tp in hints.items() if _holds_record(tp)]
        domains = [(name, tp) for name, tp in hints.items() if _declares(tp)]
        if domains or rules:

            def __post_init__(self):
                for name, tp in domains:
                    _check_domain(tp, getattr(self, name), name)
                for rule in rules:
                    rule(self)

            cls.__post_init__ = __post_init__

    def to_dict(self) -> dict:
        """The fields in declaration order, nested records as dicts;
        other values are shared with the record, not copied."""
        d = {name: getattr(self, name) for name in self._names}
        for name in self._nested:
            d[name] = _written(d[name])
        return d

    @classmethod
    def from_dict(cls, d, path: str = "", complete: bool = False):
        return check(cls, d, path, complete)

    @classmethod
    def values_of(cls, obj) -> dict:
        """The values ``obj`` holds for this record's fields, by name;
        ``obj`` may be a record of any class that has those fields."""
        return {name: getattr(obj, name) for name in cls._names}
