"""Canonical JSON encoding, document shapes and atomic file writes.

Every document this package writes goes through ``dumps_canonical`` so that
write -> read -> write round trips are byte-identical.  Every document it
reads is checked against a shape first, so decoders get values of the
expected JSON types; ``real`` decides what a number is, there and in memory.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import tempfile
import types
from json.encoder import encode_basestring_ascii
from numbers import Rational, Real

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
#   float          a finite ``real``: an int or a float, never a bool
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
_json_text = functools.partial(json.dumps, default=repr)  # a value in memory need not be JSON


class OptionalKey(str):
    """A key that an object may leave out; it equals the plain key."""


def _misfit(shape, value):
    """``None`` if ``value`` fits ``shape``, else the key path to the first
    misfit and what is wrong there.  The path is built only on a misfit.  A
    list or tuple shape also takes a tuple, which no JSON document holds, so
    that values built in memory can be checked too."""
    # a container fits if its items do: ``pairs`` holds its keys or indexes
    # with their items, and an item's shape is ``each``, or ``shape[key]``
    # where ``each`` is None
    kind, pairs, each = type(shape), None, None
    if kind is dict:  # objects and maps, the most common shapes
        if type(value) is not dict:
            shape = dict  # the kind to name
        elif str in shape:
            each, pairs = shape[str], value.items()
        else:
            if value.keys() != shape.keys():
                unknown = sorted(value.keys() - shape.keys())
                missing = sorted(k for k in shape if type(k) is str and k not in value)
                if unknown or missing:
                    return (), f"unknown keys {unknown}" if unknown else f"missing keys {missing}"
            pairs = value.items()
    elif kind is list or kind is tuple:
        if type(value) is not list and type(value) is not tuple:
            shape = list
        elif kind is list:
            each, pairs = shape[0], enumerate(value)
        elif len(value) != len(shape):
            return (), f"expected a list of {len(shape)} items, got {brief(value, _json_text)}"
        else:
            pairs = enumerate(value)
    elif shape is float:
        # NaN and the infinities, which ``json`` reads, fail the range test
        if math.isfinite(real(value, math.nan)):
            return None
    elif shape is object:  # of its values, only containers and floats can misfit
        inner = {dict: {str: object}, list: [object], float: float}.get(type(value))
        return None if inner is None else _misfit(inner, value)
    elif kind is types.UnionType:
        return None if value is None else _misfit(shape.__args__[0], value)
    elif shape is NONEMPTY:
        if type(value) is str and value:
            return None
    elif type(value) is shape:  # int, str, bool or dict
        return None
    if pairs is None:
        return (), f"expected {_NAMES[shape]}, got {brief(value, _json_text)}"
    for key, item in pairs:
        item_shape = shape[key] if each is None else each
        # an int, str, bool or dict of its shape's type fits without a call;
        # a float still needs its range test
        if type(item) is item_shape and item_shape is not float:
            continue
        misfit = _misfit(item_shape, item)
        if misfit is not None:
            return (key,) + misfit[0], misfit[1]
    return None


def real(value, default=None):
    """``value`` as a float if it is a real number: a ``numbers.Real`` that is
    no bool, nor a rational past the largest float.  Else ``default``."""
    if type(value) is not float and (  # a plain float skips the slower tests
            not isinstance(value, Real) or isinstance(value, bool)
            or isinstance(value, Rational) and abs(value) > sys.float_info.max):
        return default
    return float(value)


def shown(value, show=repr) -> str:
    """``show(value)``, or a stand-in for a value it cannot show."""
    try:
        return show(value)
    except ValueError:  # int's digit limit, or a list that holds itself
        return f"<{type(value).__name__} too long to show>"


def brief(value, show=repr) -> str:
    """``shown(value, show)``, cut to 40 characters, for an error message."""
    text = shown(value, show)
    return text if len(text) <= 40 else text[:37] + "..."


def check(shape, value, what: str) -> None:
    """Raise ``DocumentFormatError`` naming ``what`` and the path to a misfit."""
    misfit = _misfit(shape, value)
    if misfit is not None:
        path, problem = misfit
        where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
        where = f"{what}: {where.removeprefix('.')}" if path else what
        raise DocumentFormatError(f"{where}: {problem}")


def codec(name: str, shape, to_doc, from_doc):
    """``dump_<name>`` and ``load_<name>`` of a document whose JSON value fits
    ``shape``; ``to_doc`` and ``from_doc`` convert it to and from objects."""

    def dump(value) -> str:
        try:
            return dumps_canonical(to_doc(value))
        except RecursionError:
            raise DocumentFormatError(f"{name}: nested too deeply") from None

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
