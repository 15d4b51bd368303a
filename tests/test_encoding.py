"""``OutputEncoder`` against the standard library's indented encoding."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjsmap.encoding import OutputEncoder


def stdlib(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False)


def ours(value) -> str:
    return json.dumps(value, cls=OutputEncoder, indent=2, allow_nan=False)


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
def test_same_text_as_the_standard_encoder(value):
    assert ours(value) == stdlib(value)


@given(NESTS)
@settings(max_examples=200, deadline=None)
def test_nests_alone(value):
    assert ours(value) == stdlib(value)


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
        {1: [1.0], 2.5: [2.0], None: [], True: "x"},
        "é\n\"",
        1e-300,
    ],
)
def test_examples(value):
    assert ours(value) == stdlib(value)


def test_circular_reference_raises_the_standard_error():
    loop: list = [1.0]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        ours({"loop": loop})


def test_unknown_type_raises_the_standard_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        ours({"matrix": [np.int64(1)]})
