"""The one JSON encoder for stdout and every JSON file the package writes.

``json.dumps(value, cls=OutputEncoder, indent=2, allow_nan=False)`` writes the standard
library's indented layout, except that a list of numbers is one line: ``[1.0, -2.5, 3]``, its
items joined by the item separator and a space.  A matrix is then one line per row under
indented brackets.  Whitespace between JSON tokens is insignificant (RFC 8259, section 2), so
the text parses to the same value as ``json.dumps(value, indent=2, allow_nan=False)``; it only
lacks the newline and indent that the standard library writes before every number.

With an indent the standard library encodes in pure Python, one generator step per number.
Payloads here are mostly lists of numbers (matrix rows, ladders, iterates), so this
encoder formats such a list in one pass, ``map(float.__repr__, ...)`` joined into its line.
Every other value is walked in the standard library's order.  The standard encoder stays for
what this walk does not write: no indent, ``sort_keys``, an indent or item separator with an
"n" in it (the walk finds a "nan" or "inf" by its "n"), and every error (a non-finite float,
an unknown type, a cycle, an int too long for ``str``), so its exact messages are kept.

:func:`_record_data` is the one rule that turns a record (a dataclass) into a value.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring, encode_basestring_ascii

_SEQUENCES = (list, tuple)


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
    """``json.JSONEncoder`` whose indented layout writes a list of numbers on one line."""

    def encode(self, o) -> str:
        if self.indent is None or self.sort_keys:
            return super().encode(o)
        indent = self.indent if isinstance(self.indent, str) else " " * self.indent
        if "n" in indent + self.item_separator:  # the walk finds "nan" and "inf" by their "n"
            return super().encode(o)
        string = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        out: list[str] = []
        try:
            _Walk(indent, self.item_separator, self.key_separator, string, out).value(o, 0)
        except (_Unsupported, RecursionError, ValueError):  # a cycle; an int too long for str
            return super().encode(o)
        return "".join(out)


class _Walk:
    """Appends the chunks of one indented encoding to ``out``."""

    def __init__(self, indent: str, item_sep: str, key_sep: str, string, out: list[str]):
        self.indent, self.item_sep, self.key_sep, self.out = indent, item_sep, key_sep, out
        self.string = string

    def value(self, o, level: int) -> None:
        if isinstance(o, str):
            self.out.append(self.string(o))
        elif o is None:
            self.out.append("null")
        elif o is True:
            self.out.append("true")
        elif o is False:
            self.out.append("false")
        elif isinstance(o, int):
            self.out.append(int.__repr__(o))
        elif isinstance(o, float):
            if not math.isfinite(o):
                raise _Unsupported
            self.out.append(float.__repr__(o))
        elif isinstance(o, _SEQUENCES):
            self.sequence(o, level)
        elif isinstance(o, dict):
            self.mapping(o, level)
        else:
            raise _Unsupported

    def sequence(self, o, level: int) -> None:
        kinds = set(map(type, o))
        if not any(kind is bool or not issubclass(kind, (int, float)) for kind in kinds):
            # a list of numbers is one line, and so an empty list is "[]"
            floats = [issubclass(kind, float) for kind in kinds]
            fmt = float.__repr__ if all(floats) else _number_text if any(floats) else int.__repr__
            self.out.append(self.line(map(fmt, o)))
            return
        newline = "\n" + self.indent * (level + 1)
        self.out.append("[" + newline)
        separator = self.item_sep + newline
        for pos, item in enumerate(o):
            if pos:
                self.out.append(separator)
            self.value(item, level + 1)
        self.out.append("\n" + self.indent * level + "]")

    def mapping(self, o: dict, level: int) -> None:
        if not o:
            self.out.append("{}")
            return
        newline = "\n" + self.indent * (level + 1)
        self.out.append("{" + newline)
        separator = self.item_sep + newline
        for pos, (key, item) in enumerate(o.items()):
            if pos:
                self.out.append(separator)
            self.out.append(self.key(key))
            self.out.append(self.key_sep)
            self.value(item, level + 1)
        self.out.append("\n" + self.indent * level + "}")

    def key(self, key) -> str:
        """A mapping key as the standard library writes it; a number, bool or null is quoted."""
        if isinstance(key, str):
            return self.string(key)
        if isinstance(key, float) and math.isfinite(key):
            return '"' + float.__repr__(key) + '"'
        if key is None or key is True or key is False:
            return '"' + json.dumps(key) + '"'
        if isinstance(key, int):
            return '"' + int.__repr__(key) + '"'
        raise _Unsupported

    def line(self, texts) -> str:
        """A list of numbers on one line, from the texts of its items."""
        text = "[" + (self.item_sep + " ").join(texts) + "]"
        if "n" in text:
            raise _Unsupported  # "nan" or "inf"
        return text


def _number_text(number) -> str:
    return float.__repr__(number) if isinstance(number, float) else int.__repr__(number)
