"""JSON layout of result records, derived from their dataclass fields.

``to_dict`` gives one key per field, in field order, with nested records as
dicts, tuples as lists and numpy arrays as (nested) lists. ``from_dict``
rebuilds the record from the field annotations: records, ``tuple[X, ...]``,
``tuple[X, Y]``, ``Optional[X]``, str, int, float, bool, and ``np.ndarray``
(a read-only float array); any other raises TypeError on first use. A
missing field raises MalformedInput; extra keys are ignored. ``to_json`` /
``from_json`` are the same layout as text: indent 2, trailing newline.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import typing

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
        return json.dumps(self.to_dict(), indent=2) + "\n"

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
