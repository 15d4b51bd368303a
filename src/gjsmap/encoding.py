"""The one JSON encoder for stdout and every JSON file the package writes.

``json.dumps(value, cls=OutputEncoder, indent=2, allow_nan=False)`` returns
the same text as ``json.dumps(value, indent=2, allow_nan=False)``, byte for
byte.  With an indent the standard library encodes in pure Python, one
generator step per number.  Payloads here are mostly rectangular nests of
floats (curve samples, cobweb segments, matrices, the basis), so this encoder
formats each such nest in one pass: it flattens the nest, formats the leaves
with ``map(float.__repr__, ...)`` and joins them list by list with the
separators that fall between items.  Every other value is walked in the
standard library's order.  Anything this walk does not cover (a non-finite
float, a non-string key, an unknown type, a cycle, no indent, ``sort_keys``
or ``ensure_ascii=False``) sends the whole value to the standard encoder, so
its output and its exact error messages are kept.

A caller that has already formatted the leaves of a nest (an orbit report
formats each distinct number once and repeats its text) passes a
:class:`FormattedNest`.  The walk joins those strings with the same
separators; the standard encoder gets the plain nest instead.

:func:`_record_data` is the one rule that turns a record (a dataclass) into a value.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii

_SEQUENCES = (list, tuple)


def _record_data(record) -> dict:
    """``{field: value}`` of a dataclass ``record``, in declaration order.

    An enum gives its value, an array its ``tolist()`` (anything with ``tolist``, so numpy
    is never imported), a tuple a list, a nested record this rule's dict, the rest itself.
    """
    return {field.name: _plain(getattr(record, field.name)) for field in fields(record)}


def _plain(value):
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    return _record_data(value) if is_dataclass(value) else value


class _Unsupported(Exception):
    """The value needs the standard encoder."""


class FormattedNest:
    """The float nest ``plain`` of ``shape``, with ``leaves`` yielding its leaf texts row-major."""

    __slots__ = ("plain", "shape", "leaves")

    def __init__(self, plain, shape: tuple[int, ...], leaves):
        self.plain, self.shape, self.leaves = plain, shape, leaves


class OutputEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` with a fast path for indented numeric nests."""

    def encode(self, o) -> str:
        if self.indent is None or self.sort_keys or not self.ensure_ascii:
            return super().encode(o)
        indent = self.indent if isinstance(self.indent, str) else " " * self.indent
        out: list[str] = []
        try:
            _Walk(indent, self.item_separator, self.key_separator, out).value(o, 0)
        except (_Unsupported, RecursionError, ValueError):  # a cycle; an int too long for str
            return super().encode(o)
        return "".join(out)

    def default(self, o):
        if type(o) is FormattedNest:
            return o.plain
        return super().default(o)


class _Walk:
    """Appends the chunks of one indented encoding to ``out``."""

    def __init__(self, indent: str, item_sep: str, key_sep: str, out: list[str]):
        self.indent, self.item_sep, self.key_sep, self.out = indent, item_sep, key_sep, out

    def value(self, o, level: int) -> None:
        if isinstance(o, str):
            self.out.append(encode_basestring_ascii(o))
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
        elif type(o) is FormattedNest:
            self.out.append(self.nest_text(o.shape, o.leaves, level) if o.shape[0] else "[]")
        else:
            raise _Unsupported

    def sequence(self, o, level: int) -> None:
        if not o:
            self.out.append("[]")
            return
        nest = self.numeric_nest(o, level)
        if nest is not None:
            self.out.append(nest)
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
            if not isinstance(key, str):
                raise _Unsupported
            if pos:
                self.out.append(separator)
            self.out.append(encode_basestring_ascii(key))
            self.out.append(self.key_sep)
            self.value(item, level + 1)
        self.out.append("\n" + self.indent * level + "}")

    def numeric_nest(self, o, level: int) -> str | None:
        """Text of ``o`` if it is a rectangular nest of only floats or only ints.

        Lists and tuples count (not their subclasses), every dimension must
        be non-empty, and ``None`` means the nest takes the general walk.
        """
        if type(o) not in _SEQUENCES:
            return None
        shape = []
        inner = o
        while type(inner) in _SEQUENCES:
            if not inner:
                return None
            shape.append(len(inner))
            inner = inner[0]
        leaves = o
        for size in shape[1:]:
            if not set(map(type, leaves)) <= {list, tuple} or set(map(len, leaves)) != {size}:
                return None
            leaves = list(chain.from_iterable(leaves))
        kinds = set(map(type, leaves))
        if all(issubclass(kind, float) for kind in kinds):
            fmt = float.__repr__
        elif all(issubclass(kind, int) and not issubclass(kind, bool) for kind in kinds):
            fmt = int.__repr__
        else:
            return None
        return self.nest_text(shape, map(fmt, leaves), level)

    def nest_text(self, shape: tuple[int, ...] | list[int], leaves, level: int) -> str:
        """Text of a non-empty nest of ``shape`` from its leaf strings, in row-major order.

        The texts are joined list by list, innermost first: between two items
        that end ``r`` inner lists the separator closes those ``r`` lists, puts
        the item separator and opens ``r`` new ones.
        """
        depth, indent = len(shape), self.indent
        texts = leaves
        for rolled in range(depth):
            inner = range(depth - rolled, depth)
            separator = (
                "".join("\n" + indent * (level + d) + "]" for d in reversed(inner))
                + self.item_sep + "\n" + indent * (level + depth - rolled)
                + "".join("[\n" + indent * (level + d + 1) for d in inner)
            )
            if rolled + 1 < depth:  # one text per list: groups of its length
                texts = map(separator.join, zip(*[iter(texts)] * shape[depth - 1 - rolled]))
        body = separator.join(texts)
        if "n" in body:
            raise _Unsupported  # "nan" or "inf", or an indent with an "n" in it
        every = range(depth)
        return (
            "".join("[\n" + indent * (level + d + 1) for d in every)
            + body
            + "".join("\n" + indent * (level + d) + "]" for d in reversed(every))
        )
