"""The inlined ``iterate`` and the pad-free ``_diag_product`` against their old forms.

``iterate`` evaluates each step as :func:`charfun._horner` inlined and checks
the bound without a call; ``reference_iterate`` in ``helpers`` is the loop it
replaced.  Both must give the same orbit by ``float.hex``, or the same
exception with the same message and the same partial orbit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gjsmap import CharFn, Orientation, iterate
from gjsmap.errors import OverflowDiverged
from gjsmap.gha import OperatorMatrix, _diag_product
from helpers import identical, reference_iterate

ZEROS = st.sampled_from([0.0, -0.0])
COEFFICIENT = st.one_of(ZEROS, st.floats(-3.0, 3.0))
LEAD = st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0))
BOUNDS = st.sampled_from([1e6, 1e12, math.inf])
START = st.one_of(
    st.floats(-4.0, 4.0), ZEROS, st.sampled_from([1e7, -1e13, math.inf, -math.inf, math.nan])
)


@st.composite
def polynomials(draw) -> CharFn:
    """Degree 1-4, lead nonzero, with up to two trailing zeros (either sign) after it."""
    lower = draw(st.lists(COEFFICIENT, min_size=1, max_size=4))
    lead = draw(LEAD)
    trailing = draw(st.lists(ZEROS, max_size=2))
    if len(lower) == 2:
        orientation = Orientation.OSCILLATOR if lead > 0 else Orientation.WEIGHT
    else:
        orientation = draw(st.sampled_from(Orientation))
    return CharFn((*lower, lead, *trailing), orientation)


def outcome(iterate_fn, fn: CharFn, x0: float, m: int, bound: float) -> tuple:
    """The orbit in ``float.hex``, or the exception's type, message and partial orbit."""
    try:
        return ("orbit", [x.hex() for x in iterate_fn(fn, x0, m, bound)])
    except OverflowDiverged as exc:
        return (type(exc), str(exc), [x.hex() for x in exc.iterates])


class TestInlinedIterate:
    @given(
        fn=polynomials(),
        x0=START,
        m=st.one_of(st.sampled_from([0, 1]), st.integers(0, 80)),
        bound=BOUNDS,
    )
    @example(fn=CharFn((0.0, 0.0, 1.0, 0.0), Orientation.OSCILLATOR), x0=2.0, m=40,
             bound=math.inf)
    @settings(max_examples=400, deadline=None)
    def test_same_orbit_or_same_divergence(self, fn, x0, m, bound):
        assert outcome(iterate, fn, x0, m, bound) == outcome(reference_iterate, fn, x0, m, bound)

    @pytest.mark.parametrize(
        "coefficients, x0",
        [
            ((0.0, 0.0, 1.0), 2.0),  # x**2 reaches inf at step 11
            ((0.0, 0.0, 1.0, 0.0, -0.0), 2.0),  # trailing zeros of either sign
            ((-0.0, 0.0, 0.0, 1.0), -2.0),  # x**3 reaches -inf
        ],
    )
    @pytest.mark.parametrize("bound", [1e6, 1e12, math.inf])
    def test_orbits_that_leave_the_floats(self, coefficients, x0, bound):
        fn = CharFn(coefficients, Orientation.OSCILLATOR)
        got = outcome(iterate, fn, x0, 60, bound)
        assert got[0] is OverflowDiverged
        assert got == outcome(reference_iterate, fn, x0, 60, bound)
        if bound == math.inf:
            assert float.fromhex(got[2][-1]) in (math.inf, -math.inf)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("x0", [0.5, -0.0, 1e12, math.nan])
    def test_shortest_orbits(self, m, x0):
        fn = CharFn((1.0, 0.999999), Orientation.OSCILLATOR)
        assert outcome(iterate, fn, x0, m, 1e12) == outcome(reference_iterate, fn, x0, m, 1e12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_iterate_on_the_bound_is_kept(self, sign):
        fn = CharFn((sign, 1.0), Orientation.OSCILLATOR)
        orbit = [sign * v for v in (999997.0, 999998.0, 999999.0, 1e6, 1000001.0)]
        got = outcome(iterate, fn, orbit[0], 5, 1e6)
        assert got == (OverflowDiverged, f"iterate 4 = {orbit[-1]!r} exceeds the bound 1000000.0",
                       [x.hex() for x in orbit])
        assert got == outcome(reference_iterate, fn, orbit[0], 5, 1e6)

    def test_negative_count_still_rejected(self):
        fn = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
        with pytest.raises(ValueError, match="iteration count must be non-negative"):
            iterate(fn, 0.0, -1)


class TestDiagProduct:
    @pytest.mark.parametrize("k", [-1, 0, 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_equals_the_padded_product(self, k, n):
        rng = np.random.default_rng(n)
        x = OperatorMatrix(rng.normal(size=n), -k)
        y = OperatorMatrix(np.append(rng.normal(size=n - 1), -0.0) if n else [], k)
        got = _diag_product(x, y)
        want = np.pad(x.values * y.values, (max(k, 0), max(-k, 0)))
        assert got.dtype == want.dtype
        assert identical(got, want)
