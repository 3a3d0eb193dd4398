"""Canonical JSON encoding and atomic file writes.

Every document this package writes goes through ``dumps_canonical`` so that
write -> read -> write round trips are byte-identical.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from json.encoder import encode_basestring_ascii

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


def loads_document(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"malformed JSON: {exc}") from None


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
