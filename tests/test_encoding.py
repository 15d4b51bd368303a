"""``OutputEncoder`` against an independent printer of its layout and the standard library.

At ``indent=2`` with the default separators, ``ensure_ascii`` and no ``sort_keys``, each text
equals ``reference_json``'s (the standard library's indented layout with every list of numbers
on one line) and parses to the value of the standard library's text.  In every other
configuration, for a key that is not a string and in every error the text or message is the
standard library's own.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjsmap.charfun import CharFn, Orientation
from gjsmap.encoding import OutputEncoder, _record_data
from helpers import reference_json


def stdlib(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False)


def ours(value) -> str:
    return json.dumps(value, cls=OutputEncoder, indent=2, allow_nan=False)


def assert_layout(value) -> None:
    """``value``'s text is the reference layout and parses as the standard library's does."""
    text = ours(value)
    assert text == reference_json(value)
    assert json.loads(text) == json.loads(stdlib(value))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(
    FINITE,
    st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308]),
    st.integers(),
    st.integers(-(10**40), 10**40),
    FINITE.map(np.float64),
)
TEXT = st.text(st.sampled_from('ab"\\\n\t\x00\x1fé€😀 /'), max_size=6)
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), TEXT)


@st.composite
def rectangular(draw, leaves):
    """A nest of lists and tuples of one random shape, leaves from ``leaves``."""
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))

    def build(dims):
        if not dims:
            return draw(leaves)
        items = [build(dims[1:]) for _ in range(dims[0])]
        return tuple(items) if draw(st.booleans()) else items

    return build(shape)


NESTS = st.one_of(
    rectangular(FINITE),
    rectangular(st.integers()),
    rectangular(FINITE.map(np.float64)),
    rectangular(NUMBERS),
)
VALUES = st.recursive(
    st.one_of(SCALARS, NESTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=40,
)


@given(VALUES)
@settings(max_examples=200, deadline=None)
def test_layout_of_any_value(value):
    assert_layout(value)


@given(NESTS)
@settings(max_examples=200, deadline=None)
def test_nests_alone(value):
    assert_layout(value)


@given(VALUES, st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
@settings(max_examples=200, deadline=None)
def test_non_finite_raises_the_standard_error(value, bad, data):
    rows = data.draw(st.integers(1, 3))
    nest = [[1.0, 2.0] for _ in range(rows)]
    nest[data.draw(st.integers(0, rows - 1))][data.draw(st.integers(0, 1))] = bad
    payload = {"value": value, "nest": nest}
    with pytest.raises(ValueError) as want:
        stdlib(payload)
    with pytest.raises(ValueError) as got:
        ours(payload)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(repr(bad))


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        [[], [1.0]],
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0], 3.0],
        [1, 2.0, True, None, "x"],
        [[True, False], [False, True]],
        {"a": [[[1.0, -0.0], [1e-300, 2.5]]], "b": ([1, 2], (3, 4))},
        [np.float64(0.1), np.float64(-0.0)],
        [10**40, -(10**40)],
        {"a": {}, "b": {"c": {"d": [1.0]}, "e": ["x"]}},
        "é\n\"",
        1e-300,
        [1, 2.0, -0.0, 10**40],
        [[1, 2.0], (3.0, 4)],
    ],
)
def test_examples(value):
    assert_layout(value)


def test_a_matrix_is_one_line_per_row():
    value = {"m": [[1.0, -0.0], [2.5, 3]], "v": [], "w": [[[1]]]}
    assert ours(value) == (
        '{\n  "m": [\n    [1.0, -0.0],\n    [2.5, 3]\n  ],\n  "v": [],\n'
        '  "w": [\n    [\n      [1]\n    ]\n  ]\n}'
    )


def test_circular_reference_raises_the_standard_error():
    loop: list = [1.0]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        ours({"loop": loop})


def test_unknown_type_raises_the_standard_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        ours({"matrix": [np.int64(1)]})


@pytest.mark.parametrize("key, error", [((1, 2), TypeError), (math.nan, ValueError)])
def test_a_key_the_walk_cannot_write_raises_the_standard_error(key, error):
    with pytest.raises(error) as want:
        stdlib({key: [1.0]})
    with pytest.raises(error) as got:
        ours({key: [1.0]})
    assert str(got.value) == str(want.value)


class _Row(list):
    """A list subclass, which the walk writes as it writes a list."""


#: Lists of numbers, list subclasses and text that ``ensure_ascii`` escapes.
_MIXED = {"b": [[1.0, 2.5], [3.0, -0.0]], "a": _Row([1.0, 2.0]), "c": [_Row([1]), _Row([2])],
          "é": ["€"]}
#: Number, bool and null keys, which the standard library writes as strings.
_KEYED = {1: [1.0], 2.5: [2.0], None: [], True: "x"}


def _text_or_error(value, settings, **encoder) -> str:
    try:
        return json.dumps(value, allow_nan=False, **encoder, **settings)
    except TypeError as exc:
        return f"TypeError: {exc}"


@pytest.mark.parametrize(
    "settings", [{"indent": 2}, {"indent": None}, {"indent": 2, "sort_keys": True},
                 {"indent": "n"}, {"indent": 2, "separators": ("n,", ": ")},
                 {"indent": 2, "ensure_ascii": False}, {"indent": "  "}, {"indent": 2.0}]
)
def test_settings_and_types_past_the_fast_path(settings):
    if (settings, type(settings["indent"])) == ({"indent": 2}, int):  # the walk, not 2.0
        assert_layout(_MIXED)  # list subclasses included
    else:  # any other configuration: the standard encoder
        assert (_text_or_error(_MIXED, settings, cls=OutputEncoder)
                == _text_or_error(_MIXED, settings))
    # a key that is not a string: the standard encoder in every configuration
    assert _text_or_error(_KEYED, settings, cls=OutputEncoder) == _text_or_error(_KEYED, settings)


@dataclass(frozen=True)
class _Record:
    name: str
    kind: Orientation
    values: np.ndarray
    pair: tuple
    fn: CharFn
    extra: object = None


def test_record_data_in_field_order():
    fn = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
    data = _record_data(_Record("r", Orientation.WEIGHT, np.arange(3.0), (1.0, 2.0), fn))
    assert data == {"name": "r", "kind": "weight", "values": [0.0, 1.0, 2.0], "pair": [1.0, 2.0],
                    "fn": {"coefficients": [1.0, 1.0], "orientation": "oscillator"}, "extra": None}
    assert list(data) == ["name", "kind", "values", "pair", "fn", "extra"]
    assert [type(v) for v in data["values"]] == [float] * 3
