"""The orbit report writers against the reference writers in ``helpers``.

The writers build every JSON nest and CSV row from one formatted string per
number, and a report derives its sample pairs, diagonal and segments from its
iterates and flat samples.  Both must give the bytes the old code gave.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjsmap import (
    CharFn,
    Orientation,
    cobweb,
    figure_bundle,
    write_bundle,
    write_report_csvs,
    write_report_json,
)
from gjsmap.charfun import iterate
from gjsmap.errors import OverflowDiverged
from helpers import reference_cobweb_parts, reference_report_csvs, reference_report_json

COEFFICIENT = st.floats(-3.0, 3.0)
LEAD = st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0))


@st.composite
def polynomials(draw) -> CharFn:
    """A random quadratic (oriented by its lead) or cubic (either orientation)."""
    lower = draw(st.lists(COEFFICIENT, min_size=2, max_size=3))
    lead = draw(LEAD)
    if len(lower) == 2:
        orientation = Orientation.OSCILLATOR if lead > 0 else Orientation.WEIGHT
    else:
        orientation = draw(st.sampled_from(Orientation))
    return CharFn((*lower, lead), orientation)


def orbit_of(fn: CharFn, x0: float, steps: int) -> list[float]:
    try:
        return iterate(fn, x0, steps)
    except OverflowDiverged as exc:
        return exc.iterates


@st.composite
def windows(draw, orbit: list[float]):
    """No window, one that cuts the orbit after step ``k``, one that holds it
    all, or one that leaves out ``x0`` (no segment is drawn)."""
    kind = draw(st.sampled_from(["default", "cut", "all", "before"]))
    if kind == "default":
        return None
    if kind == "before":
        side = draw(st.sampled_from([-1.0, 1.0]))
        return tuple(sorted((orbit[0] + side, orbit[0] + 2.0 * side)))
    k = draw(st.integers(0, len(orbit) - 1)) if kind == "cut" else len(orbit) - 1
    lo, hi = min(orbit[: k + 1]), max(orbit[: k + 1])
    pad = 1e-3 * (hi - lo) + 1e-9
    return (lo - pad, hi + pad)


def written(report) -> tuple[str, str, str]:
    with TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("r.json", "curve.csv", "cobweb.csv")]
        write_report_json(report, paths[0])
        write_report_csvs(report, *paths[1:])
        return tuple(path.read_bytes().decode("utf-8") for path in paths)


@given(polynomials(), st.floats(-2.0, 2.0), st.integers(1, 60), st.integers(2, 64), st.data())
@settings(max_examples=150, deadline=None)
def test_reports_match_the_reference(fn, x0, steps, samples, data):
    orbit = orbit_of(fn, x0, steps)
    report = cobweb(fn, x0, steps, data.draw(windows(orbit)), samples=samples)
    fn_samples, diagonal, segments, truncated = reference_cobweb_parts(
        fn, orbit, report.window, samples
    )
    assert list(report.iterates) == orbit
    assert report.fn_samples == fn_samples
    assert report.diagonal_samples == diagonal
    assert report.cobweb_segments == segments
    assert report.truncated_window is truncated
    assert written(report) == (reference_report_json(report), *reference_report_csvs(report))


def test_diverging_orbit_matches_the_reference():
    fn = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
    report = cobweb(fn, 0.85, 200, (-1e30, 1e30), samples=64)
    assert report.truncated_divergence and not report.truncated_window
    assert written(report) == (reference_report_json(report), *reference_report_csvs(report))


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_stock_bundles_match_the_reference(name, tmp_path):
    bundle = figure_bundle(name)
    write_bundle(bundle, tmp_path)
    for series, report in bundle.reports:
        stem = tmp_path / f"{name}_{series}"
        curve, cobweb_rows = reference_report_csvs(report)
        assert Path(f"{stem}.json").read_text() == reference_report_json(report)
        assert Path(f"{stem}_curve.csv").read_text() == curve
        assert Path(f"{stem}_cobweb.csv").read_text() == cobweb_rows


def test_report_with_inf_raises_the_standard_error(tmp_path):
    fn = CharFn((0.0, 0.0, 1.0), Orientation.OSCILLATOR)
    report = cobweb(fn, 2.0, 20, bound=1e300)
    assert report.iterates[-1] == float("inf")
    with pytest.raises(ValueError) as want:
        reference_report_json(report)
    with pytest.raises(ValueError) as got:
        write_report_json(report, tmp_path / "r.json")
    assert str(got.value) == str(want.value)
    assert str(got.value) == "Out of range float values are not JSON compliant: inf"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_samples_name_the_window():
    fn = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
    with pytest.raises(ValueError, match=r"window \[-1e\+200, 1e\+200\] are not finite"):
        cobweb(fn, 0.56, 5, (-1e200, 1e200))
