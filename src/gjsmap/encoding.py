"""The one JSON encoder for stdout and every JSON file the package writes.

``json.dumps(value, cls=OutputEncoder, indent=2, allow_nan=False)`` writes the standard
library's indented layout, except that a list of numbers is one line: ``[1.0, -2.5, 3]``.  A
matrix is then one line per row under indented brackets.  Whitespace between JSON tokens is
insignificant (RFC 8259, section 2), so the text parses to the same value as
``json.dumps(value, indent=2, allow_nan=False)``; it only lacks the newline and indent that the
standard library writes before every number.

With an indent the standard library encodes in pure Python, one generator step per number.
Payloads here are mostly lists of numbers (matrix rows, ladders, iterates), so this encoder
formats such a list in one pass, ``map(float.__repr__, ...)`` joined into its line, and walks
every other value in the standard library's order.  It walks only the package's one
configuration: ``indent=2``, the default separators, ``ensure_ascii``, no ``sort_keys`` and
string mapping keys.  Every other configuration or key, and every error (a non-finite float, an
unknown type, a cycle, an int too long for ``str``), goes to the standard encoder, so its exact
text or message is kept.

:func:`_record_data` is the one rule that turns a record (a dataclass) into a value.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii

#: The walked configuration: indent, item and key separators, ensure_ascii, sort_keys.
_WALKED = (2, ",", ": ", True, False)


def _record_data(record) -> dict:
    """``{field: value}`` of a dataclass ``record``, in declaration order.

    An enum gives its value, an array its ``tolist()`` (anything with ``tolist``, so numpy
    is never imported), a tuple a list (of records, their dicts), a nested record this rule's
    dict, the rest itself.
    """
    return {field.name: _plain(getattr(record, field.name)) for field in fields(record)}


def _plain(value):
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value] if value and is_dataclass(value[0]) else list(value)
    return _record_data(value) if is_dataclass(value) else value


class _Unsupported(Exception):
    """The value needs the standard encoder."""


class OutputEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` whose ``indent=2`` layout writes a list of numbers on one line."""

    def encode(self, o) -> str:
        config = (self.indent, self.item_separator, self.key_separator, self.ensure_ascii,
                  self.sort_keys)
        if config != _WALKED or type(self.indent) is not int:  # an indent of 2.0 is a TypeError
            return super().encode(o)
        out: list[str] = []
        try:
            _walk(o, "\n", out)
        except (_Unsupported, RecursionError, ValueError):  # a cycle; an int too long for str
            return super().encode(o)
        return "".join(out)


def _walk(o, newline: str, out: list[str]) -> None:
    """Appends the chunks of ``o``'s encoding to ``out``; ``newline`` is a newline and the
    indent of ``o``'s level."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float) and math.isfinite(o):
        out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        kinds = set(map(type, o))
        if not any(kind is bool or not issubclass(kind, (int, float)) for kind in kinds):
            # a list of numbers is one line, and so an empty list is "[]"
            floats = [issubclass(kind, float) for kind in kinds]
            fmt = float.__repr__ if all(floats) else _number_text if any(floats) else int.__repr__
            line = "[" + ", ".join(map(fmt, o)) + "]"
            if "n" in line:
                raise _Unsupported  # "nan" or "inf"
            out.append(line)
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in o:
            out.append(separator)
            _walk(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in o.items():
            if not isinstance(key, str):
                raise _Unsupported
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _walk(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise _Unsupported


def _number_text(number) -> str:
    return float.__repr__(number) if isinstance(number, float) else int.__repr__(number)
