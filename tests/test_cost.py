"""Cost contracts of the root isolator, counted in bytes rather than time."""

import tracemalloc

from gjsmap import CharFn, Orientation, RepKind
from gjsmap.gsl2 import _closure_roots

SHOWCASE = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)
KINDS = (RepKind.FINITE_CUT, RepKind.FINITE_PERIODIC)
MIB = 2**20


def peak_bytes(d: int, kind: RepKind) -> int:
    """The ``tracemalloc`` peak of one closure solve, above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _closure_roots(SHOWCASE, d, kind)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_deep_solve_holds_no_array_per_composition_order():
    # One forward sweep keeps a few level arrays alive, not the d + 1 iterate bounds.
    _closure_roots(SHOWCASE, 16, RepKind.FINITE_CUT)  # warm-up: imports and caches
    peaks = {(d, kind): peak_bytes(d, kind) for d in (16, 20, 32) for kind in KINDS}
    assert max(peaks.values()) <= 4 * MIB, peaks
    for kind in KINDS:
        assert peaks[32, kind] <= 1.1 * peaks[16, kind], peaks
