"""JSON layout of result records, derived from their dataclass fields.

``to_dict`` gives one key per field, in field order, with nested records as
dicts, tuples as lists and numpy arrays as (nested) lists. ``from_dict``
rebuilds the record from the field annotations: records, ``tuple[X, ...]``,
``tuple[X, Y]``, ``Optional[X]``, str, int, float, bool, and ``np.ndarray``
(a read-only float array); any other raises TypeError on first use. A
missing field raises MalformedInput; extra keys are ignored.

``to_json`` writes that layout as text itself, in one pass over the record
and with no intermediate dict: json's indent-2 layout (``": "`` after keys,
``","``, a newline and the indent between items, ``[]`` for an empty
array) with one trailing newline, and json's spellings (``float.__repr__``
for floats and their subclasses, ``NaN`` / ``Infinity`` / ``-Infinity``,
``int.__repr__``, ``true`` / ``false`` / ``null``, ASCII-escaped strings),
so its text is ``json.dumps(to_dict(), indent=2) + "\\n"`` byte for byte. A
value json refuses, such as ``np.int64``, raises TypeError as json does.
``from_json`` reads it back.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import typing
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .exceptions import MalformedInput

_SCALARS = (str, int, float, bool)


class Record:
    """Mixin giving a dataclass ``to_dict`` / ``from_dict`` and
    ``to_json`` / ``from_json``."""

    def to_dict(self) -> dict:
        return {name: _encode(getattr(self, name))
                for name, _ in _decoders(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        fields = {}
        for name, dec in _decoders(cls):
            if name not in d:
                raise MalformedInput(f"missing field {name!r} in {cls.__name__}")
            fields[name] = dec(d[name])
        return cls(**fields)

    def to_json(self) -> str:
        parts: list[str] = []
        _write(self, parts, "\n")
        parts.append("\n")
        return "".join(parts)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(value, parts: list[str], newline: str) -> None:
    """Appends the JSON text of ``value`` to ``parts``, laid out as json's
    indent-2 encoder lays out a value whose line starts at ``newline``
    ("\\n" and the current indent)."""
    if isinstance(value, float):
        text = float.__repr__(value)
        parts.append(_NONFINITE.get(text, text))
    elif isinstance(value, str):
        parts.append(_string(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, Record):
        keys = _keys(type(value))
        if not keys:
            parts.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for name, key in keys:
            parts.append(sep)
            parts.append(key)
            _write(getattr(value, name), parts, inner)
            sep = comma
        parts.append(newline + "}")
    elif isinstance(value, (tuple, list)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            parts.append(sep)
            _write(item, parts, inner)
            sep = comma
        parts.append(newline + "]")
    elif isinstance(value, np.ndarray):
        _write(value.tolist(), parts, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def _same(value):
    return value


def _array(value) -> np.ndarray:
    arr = np.array(value, dtype=float)
    arr.flags.writeable = False
    return arr


def _decoder(tp) -> typing.Callable:
    """Rebuilds a value annotated ``tp`` from its JSON form."""
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        dec = _decoder(args[1] if args[0] is type(None) else args[0])
        return lambda v: None if v is None else dec(v)
    if origin is tuple:
        if args[1:] == (Ellipsis,):
            decs = itertools.repeat(_decoder(args[0]))
        else:
            decs = [_decoder(a) for a in args]
        return lambda v: tuple(dec(x) for dec, x in zip(decs, v))
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.from_dict
    if tp in _SCALARS:
        return _same
    if tp is np.ndarray:
        return _array
    raise TypeError(f"no JSON layout for annotation {tp!r}")


@functools.cache
def _decoders(cls: type) -> tuple[tuple[str, typing.Callable], ...]:
    """(field name, decoder) for each field of a record class, in order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _decoder(hints[f.name]))
                 for f in dataclasses.fields(cls))


@functools.cache
def _keys(cls: type) -> tuple[tuple[str, str], ...]:
    """(field name, its JSON key and ": ") for each field of a record class,
    in the order of ``_decoders``."""
    return tuple((name, _string(name) + ": ") for name, _ in _decoders(cls))
