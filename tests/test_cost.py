"""Cost contracts, counted in bytes and orbits rather than time: the root isolator's memory and
that of an exact value, the memory of the three builds with their checks, the orbits a request
runs, and the bytes of an orbit report and of two large payloads on stdout."""

import contextlib
import io
import tracemalloc

import pytest

from gjsmap import (
    CharFn,
    FixedJ,
    Orientation,
    RepKind,
    build_gha,
    build_gsl2,
    build_jsmap,
    figure_bundle,
    periodic_condition_solve,
    verify_gha_relations,
    verify_gsl2_relations,
    verify_jsmap_relations,
    verify_map_equals_gsl2,
    write_bundle,
)
from gjsmap import charfun
from gjsmap.cli import main
from gjsmap.gsl2 import _closure_roots
from gjsmap.roots import Composition

SHOWCASE = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)
KINDS = (RepKind.FINITE_CUT, RepKind.FINITE_PERIODIC)
MIB = 2**20

# The Schwinger pair: f = x + 1 from alpha0 = 0, g = x - 1 from alpha_j = j.
BOSON = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
SL2 = CharFn((-1.0, 1.0), Orientation.WEIGHT)


def peak_bytes(call, *args) -> int:
    """The ``tracemalloc`` peak of ``call(*args)``, above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_deep_solve_holds_no_array_per_composition_order():
    # One forward sweep keeps a few level arrays alive, not the d + 1 iterate bounds.
    _closure_roots(SHOWCASE, 16, RepKind.FINITE_CUT)  # warm-up: imports and caches
    peaks = {(d, kind): peak_bytes(_closure_roots, SHOWCASE, d, kind)
             for d in (16, 20, 32) for kind in KINDS}
    assert max(peaks.values()) <= 4 * MIB, peaks
    for kind in KINDS:
        assert peaks[32, kind] <= 1.1 * peaks[16, kind], peaks


#: A cubic whose 1e200 coefficient makes every exact iterate a number of many digits.
WIDE_CUBIC = CharFn((-2.5, 1.0, 1e200, -1.0), Orientation.WEIGHT)


def test_an_exact_slope_holds_a_few_digits_not_the_whole_iterate():
    # An exact integer evaluation carries every digit of g^(7)(x), a 1.3 MiB peak; each bound
    # of a decimal interval carries 24 digits.
    assert periodic_condition_solve(WIDE_CUBIC, 8) == ()
    closure = Composition(WIDE_CUBIC.coefficients, 8, -1.0, 0.0)
    closure.exact(0.5, slope=True)  # warm-up: imports and caches
    assert peak_bytes(closure.exact, 0.5, True) <= 64 * 1024


def gha_checked(two_j: int) -> None:
    verify_gha_relations(build_gha(BOSON, 0.0, two_j + 1))


def gsl2_checked(two_j: int) -> None:
    verify_gsl2_relations(build_gsl2(SL2, two_j / 2, two_j + 1, RepKind.FINITE_CUT))


def jsmap_checked(two_j: int) -> None:
    rep = build_jsmap(BOSON, 0.0, SL2, two_j / 2, FixedJ(two_j))
    verify_jsmap_relations(rep)
    verify_map_equals_gsl2(rep, build_gsl2(SL2, two_j / 2, two_j + 1, RepKind.FINITE_CUT))


#: Bytes per state allowed at either size: 1.3 times the larger of the peaks measured at
#: 2j = 300 and 3,000 (gha 90.1 and 81.0, gsl2 88.9 and 80.9, jsmap 149.0 and 138.2).
BYTES_PER_STATE = {gha_checked: 117, gsl2_checked: 116, jsmap_checked: 194}


@pytest.mark.parametrize("checked", BYTES_PER_STATE, ids=lambda f: f.__name__)
def test_a_build_and_its_checks_hold_memory_linear_in_the_states(checked):
    # Every operator is one diagonal, so a dense matrix would multiply the peak by 100 a decade.
    checked(300)  # warm-up: imports and caches
    peaks = {two_j: peak_bytes(checked, two_j) for two_j in (300, 3000)}
    assert peaks[3000] <= 11 * peaks[300], peaks
    for two_j, peak in peaks.items():
        assert peak <= BYTES_PER_STATE[checked] * (two_j + 1), peaks


def stdout_bytes(argv: list[str]) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return len(out.getvalue().encode("utf-8"))


@pytest.fixture
def orbit_loops(monkeypatch) -> list[int]:
    """The coefficient count of each orbit loop run, whichever module's ``iterate`` runs it."""
    runs = []
    compiled = charfun._orbit_loop

    def counted(count):
        loop = compiled(count)

        def counting(*args):
            runs.append(count)
            return loop(*args)

        return counting

    monkeypatch.setattr(charfun, "_orbit_loop", counted)
    return runs


BOSON_JSON = '{"coefficients":[1,1],"orientation":"oscillator"}'
SL2_JSON = '{"coefficients":[-1,1],"orientation":"weight"}'

#: Each request with the orbits it runs, one per characteristic function: a ``jsmap verify``
#: builds the map and the direct representation on one ``g`` orbit (it ran three orbits when
#: the direct build iterated ``g`` again).
REQUEST_ORBITS = {
    "gha build": (["gha", "build", "--fn", BOSON_JSON, "--alpha0", "0", "--dim", "7",
                   "--verify"], 1),
    "gsl2 build": (["gsl2", "build", "--gn", SL2_JSON, "--alphaj", "3", "--dim", "7",
                    "--kind", "cut", "--verify"], 1),
    "jsmap verify": (["jsmap", "verify", "--fn", BOSON_JSON, "--alpha0", "0", "--gn", SL2_JSON,
                      "--alphaj", "3", "--j", "3"], 2),
}


@pytest.mark.parametrize("case", sorted(REQUEST_ORBITS))
def test_a_request_iterates_each_characteristic_function_once(case, orbit_loops):
    argv, orbits = REQUEST_ORBITS[case]
    stdout_bytes(argv)
    assert orbit_loops == [2] * orbits


#: Bytes of each stock report JSON and of the README cobweb's stdout as written once the record
#: held the curve's sample count instead of its samples (20,998 to 24,797 per report JSON and
#: 21,880 for the stdout with ``sample_x`` and ``sample_fx``); the contract allows 1.15 times
#: as many.
REPORT_BYTES = {
    "fig1_a.json": 4499, "fig1_b.json": 700, "fig2_b.json": 623, "fig3_a.json": 667,
    "fig4_oscillator.json": 645, "fig4_weight.json": 646,
}
README_COBWEB = ["orbit", "cobweb", "--fn",
                 '{"coefficients":[1.225,-2.5,2.5],"orientation":"oscillator"}',
                 "--x0", "0.56", "--steps", "50"]
README_COBWEB_BYTES = 1565


def test_an_orbit_report_writes_its_record_not_its_derived_views(tmp_path):
    # Restating the curve (as samples, pairs or a diagonal) or the segments would multiply each.
    for name in ("fig1", "fig2", "fig3", "fig4"):
        write_bundle(figure_bundle(name), tmp_path)
    sizes = {path.name: path.stat().st_size for path in tmp_path.glob("*.json")}
    assert sorted(sizes) == sorted(REPORT_BYTES)
    for name, size in sizes.items():
        assert size <= 1.15 * REPORT_BYTES[name], sizes
    assert stdout_bytes(README_COBWEB) <= 1.15 * README_COBWEB_BYTES


#: Bytes of each stock curve CSV as written once the curve file became ``x,fn`` (28,910 to
#: 30,565 with its ``diagonal`` column); the contract allows 1.15 times as many.
CURVE_BYTES = {
    "fig1_a_curve.csv": 19264, "fig1_b_curve.csv": 19264, "fig2_b_curve.csv": 19689,
    "fig3_a_curve.csv": 19746, "fig4_oscillator_curve.csv": 20337,
    "fig4_weight_curve.csv": 19624,
}


def test_a_curve_file_states_x_once(tmp_path):
    # A column that restates x, the y = x line, would make each file half as large again.
    for name in ("fig1", "fig2", "fig3", "fig4"):
        write_bundle(figure_bundle(name), tmp_path)
    sizes = {path.name: path.stat().st_size for path in tmp_path.glob("*_curve.csv")}
    assert sorted(sizes) == sorted(CURVE_BYTES)
    for name, size in sizes.items():
        assert size <= 1.15 * CURVE_BYTES[name], sizes


#: Bytes of stdout as written once a list of numbers became one line (41,176 and 2,464,282
#: with one number per line); the contract allows 1.15 times as many.
STDOUT_BYTES = {
    "gha build q 801": (
        ["gha", "build", "--fn", '{"coefficients":[1,1.002],"orientation":"oscillator"}',
         "--alpha0", "0.25", "--dim", "801", "--verify", "--tol", "1e-9"], 31534),
    "jsmap build dense j 100": (
        ["jsmap", "build", "--fn", '{"coefficients":[1,1],"orientation":"oscillator"}',
         "--alpha0", "0", "--gn", '{"coefficients":[-1,1],"orientation":"weight"}',
         "--alphaj", "100", "--j", "100"], 832100),
}


@pytest.mark.parametrize("name", STDOUT_BYTES)
def test_a_list_of_numbers_is_one_line_on_stdout(name):
    # A ladder or a matrix row written one number per line is a third larger, a dense
    # matrix three times as large.
    argv, size = STDOUT_BYTES[name]
    assert stdout_bytes(argv) <= 1.15 * size
