"""Canonical JSON encoding, document shapes and atomic file writes.

Every document this package writes goes through ``dumps_canonical`` so that
write -> read -> write round trips are byte-identical.  Every document it
reads is checked against a shape first, so decoders build their objects
from values of the expected JSON types.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import types
from json.encoder import encode_basestring_ascii
from math import isfinite

from .errors import DocumentFormatError

_INDENT = "  "
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _newline(depth: int) -> str:
    return "\n" + _INDENT * depth


@functools.cache
def _encoder(depth: int):
    """Sorted-key, NaN-rejecting encoder whose item separator carries the
    newline and indentation of items at ``depth``."""
    return json.JSONEncoder(
        sort_keys=True,
        allow_nan=False,
        check_circular=False,  # only ever given scalars and flat containers
        separators=("," + _newline(depth), ": "),
    ).encode


def dumps_canonical(doc) -> str:
    """Serialize ``doc`` with sorted keys and a trailing newline.

    The text is byte-identical to ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``.  Any ``indent`` makes ``json`` fall back to
    its pure-Python encoder, so this walks only the containers that hold
    other containers and hands every flat one (all values ``str``, ``int``,
    ``float``, ``bool`` or ``None``) to ``json.JSONEncoder`` in one call,
    with the indentation folded into its item separator.
    """
    return _encode(doc, 0) + "\n"


def _encode(o, depth: int) -> str:
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return int.__repr__(o)
    if isinstance(o, dict):
        opener, closer, values = "{", "}", o.values()
    elif isinstance(o, (list, tuple)):
        opener, closer, values = "[", "]", o
    else:
        # other scalars, or the TypeError json raises for anything else
        return _encoder(0)(o)
    if not o:
        return opener + closer
    inner = depth + 1
    if _SCALARS.issuperset(map(type, values)):
        body = _encoder(inner)(o)[1:-1]
    else:
        if opener == "{":
            items = [
                (encode_basestring_ascii(key) if type(key) is str else _key(key))
                + ": "
                + _encode(value, inner)
                for key, value in sorted(o.items())
            ]
        else:
            items = [_encode(value, inner) for value in o]
        body = ("," + _newline(inner)).join(items)
    return opener + _newline(inner) + body + _newline(depth) + closer


def _key(key) -> str:
    """A non-str dict key as ``json`` writes it: coerced, then quoted."""
    if not isinstance(key, (str, float, int, bool, type(None))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else _encoder(0)(key))


# ---------------------------------------------------------------------------
# document shapes
#
# A shape describes a JSON value with Python literals:
#   int            an integer: never a bool, never a float such as 8.0
#   float          a finite number, int or float, never a bool
#   str, bool      a string, a boolean
#   NONEMPTY       a string other than ""
#   dict           any object; its values are checked elsewhere
#   object         any JSON value
#   S | None       null or a value of the type S
#   [S]            a list of values of shape S
#   (S1, ..., Sn)  a list of n values, of shapes S1 ... Sn in order
#   {str: S}       an object of any keys, each holding a value of shape S
#   {"k": S, OptionalKey("o"): T}
#                  an object with the key "k", maybe the key "o" and no
#                  other, holding values of shapes S and T

NONEMPTY = "a nonempty string"
_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "a boolean",
          dict: "an object", list: "a list", NONEMPTY: NONEMPTY}


class OptionalKey(str):
    """A key that an object may leave out; it equals the plain key."""


# Each shape is compiled once, on first use, into nested closures: a check
# of ``value`` returns ``None`` if it fits, else the key path to the first
# misfit and what is wrong there.  The path is built only on a misfit.  A
# shape must not change once it has been used.

_COMPILED: dict[int, tuple] = {}  # id(shape) -> (shape, its check)


def compile_shape(shape):
    """The compiled check of ``shape``, made on the first call."""
    entry = _COMPILED.get(id(shape))
    if entry is None:
        # the entry keeps the shape alive, so its id is never reused
        entry = _COMPILED[id(shape)] = (shape, _compile(shape))
    return entry[1]


def _compile(shape):
    kind = type(shape)
    if shape is float:
        return _fit_number
    if shape is object:
        return _fit_any
    if kind is type or shape is NONEMPTY:  # int, str, bool or dict
        return _fit_type(shape)
    if kind is types.UnionType:
        inner = _compile(shape.__args__[0])
        return lambda value: None if value is None else inner(value)
    if kind is list:
        return _fit_list(_compile(shape[0]))
    if kind is tuple:
        return _fit_tuple(tuple(map(_compile, shape)))
    if str in shape:
        return _fit_mapping(shape[str])
    return _fit_object(shape)


def _expected(shape, value):
    return (), f"expected {_NAMES[shape]}, got {_text(value)}"


def _fit_number(value):
    # NaN and the infinities, which ``json`` reads, fail the range test
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return None
    return _expected(float, value)


def _fit_any(value):
    # of a JSON value, only containers and floats can misfit
    kind = type(value)
    if kind is dict:
        return _fit_any_object(value)
    if kind is list:
        return _fit_any_list(value)
    return _fit_number(value) if kind is float else None


def _fit_type(shape):
    if shape is NONEMPTY:
        return lambda value: None if type(value) is str and value else _expected(shape, value)
    return lambda value: None if type(value) is shape else _expected(shape, value)


def _fit_list(item):
    def fit(value):
        if type(value) is not list:
            return _expected(list, value)
        for index, misfit in enumerate(map(item, value)):
            if misfit is not None:
                return (index,) + misfit[0], misfit[1]
        return None

    return fit


def _fit_tuple(items):
    size = len(items)

    def fit(value):
        if type(value) is not list:
            return _expected(list, value)
        if len(value) != size:
            return (), f"expected a list of {size} items, got {_text(value)}"
        for index, (item, element) in enumerate(zip(items, value)):
            misfit = item(element)
            if misfit is not None:
                return (index,) + misfit[0], misfit[1]
        return None

    return fit


def _fit_mapping(item_shape):
    item = _compile(item_shape)
    numbers = item_shape is float

    def fit(value):
        if type(value) is not dict:
            return _expected(dict, value)
        values = value.values()
        # event counts, most of a library, pass in C loops: a sum of floats
        # is NaN or infinite if one of them is
        if numbers and {float} >= set(map(type, values)) and isfinite(sum(values)):
            return None
        for key, misfit in zip(value, map(item, values)):
            if misfit is not None:
                return (key,) + misfit[0], misfit[1]
        return None

    return fit


def _fit_object(shape):
    keys = frozenset(shape)
    required = sorted(key for key in shape if type(key) is str)
    items = {key: _compile(item) for key, item in shape.items()}

    def fit(value):
        if type(value) is not dict:
            return _expected(dict, value)
        if value.keys() != keys:
            unknown = sorted(value.keys() - keys)
            missing = [key for key in required if key not in value]
            if unknown or missing:
                return (), f"unknown keys {unknown}" if unknown else f"missing keys {missing}"
        for key, item in value.items():
            misfit = items[key](item)
            if misfit is not None:
                return (key,) + misfit[0], misfit[1]
        return None

    return fit


_fit_any_object = _compile({str: object})
_fit_any_list = _compile([object])


def _text(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def check(shape, value, what: str) -> None:
    """Raise ``DocumentFormatError`` naming ``what`` and the path to a misfit."""
    misfit = compile_shape(shape)(value)
    if misfit is not None:
        path, problem = misfit
        where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
        where = f"{what}: {where.removeprefix('.')}" if path else what
        raise DocumentFormatError(f"{where}: {problem}")


def codec(name: str, shape, to_doc, from_doc):
    """``dump_<name>`` and ``load_<name>`` of a document whose JSON value fits
    ``shape``; ``to_doc`` and ``from_doc`` convert it to and from objects."""

    def dump(value) -> str:
        return dumps_canonical(to_doc(value))

    def load(text: str):
        try:
            doc = json.loads(text)
            check(shape, doc, name)
        except RecursionError:
            raise DocumentFormatError(f"{name}: nested too deeply") from None
        except ValueError as exc:  # bad JSON, or an int of too many digits
            raise DocumentFormatError(f"malformed JSON: {exc}") from None
        return from_doc(doc)

    return dump, load


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
