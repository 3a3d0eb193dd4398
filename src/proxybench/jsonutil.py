"""Canonical JSON encoding and atomic file writes.

Every document this package writes goes through ``dumps_canonical`` so that
write -> read -> write round trips are byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile

from .errors import DocumentFormatError


def dumps_canonical(doc) -> str:
    """Serialize ``doc`` with sorted keys and a trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
