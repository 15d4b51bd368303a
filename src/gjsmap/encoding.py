"""The one JSON encoder for stdout and every JSON file the package writes.

``json.dumps(value, cls=OutputEncoder, indent=2, allow_nan=False)`` returns
the same text as ``json.dumps(value, indent=2, allow_nan=False)``, byte for
byte.  With an indent the standard library encodes in pure Python, one
generator step per number.  Payloads here are mostly rectangular nests of
floats (curve samples, cobweb segments, matrices, the basis), so this encoder
formats each such nest in one pass: it flattens the nest, formats the leaves
with ``map(float.__repr__, ...)`` and interleaves a cycled table of the
separators that fall between leaves.  Every other value is walked in the
standard library's order.  Anything this walk does not cover (a non-finite
float, a non-string key, an unknown type, a cycle, no indent, ``sort_keys``
or ``ensure_ascii=False``) sends the whole value to the standard encoder, so
its output and its exact error messages are kept.
"""

from __future__ import annotations

import json
import math
from itertools import chain, cycle
from json.encoder import encode_basestring_ascii

_SEQUENCES = (list, tuple)


class _Unsupported(Exception):
    """The value needs the standard encoder."""


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
        separators = self.nest_separators(shape, level)
        parts = list(chain.from_iterable(zip(map(fmt, leaves), cycle(separators))))
        depth = len(shape)
        parts[-1] = "".join(
            "\n" + self.indent * (level + d) + "]" for d in reversed(range(depth))
        )
        body = "".join(parts)
        if fmt is float.__repr__ and "n" in body:
            raise _Unsupported  # "nan" or "inf", or an indent with an "n" in it
        return "".join("[\n" + self.indent * (level + d + 1) for d in range(depth)) + body

    def nest_separators(self, shape: list[int], level: int) -> list[str]:
        """What follows each leaf of one outermost item of a nest of ``shape``.

        After a leaf that ends ``r`` inner lists, the separator closes those
        ``r`` lists, puts the item separator and opens ``r`` new ones.
        """
        depth = len(shape)
        period = math.prod(shape[1:])
        table = [""] * period
        stride = 1
        for rolled in range(depth):
            closes = "".join(
                "\n" + self.indent * (level + d) + "]"
                for d in reversed(range(depth - rolled, depth))
            )
            opens = "".join(
                "[\n" + self.indent * (level + d + 1) for d in range(depth - rolled, depth)
            )
            text = closes + self.item_sep + "\n" + self.indent * (level + depth - rolled) + opens
            table[stride - 1::stride] = [text] * (period // stride)
            if rolled + 1 < depth:
                stride *= shape[depth - 1 - rolled]
        return table
