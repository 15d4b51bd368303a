"""The orbit report writers against the reference writers in ``helpers``.

The writers encode the report's record with ``OutputEncoder`` and format the curve
and the drawn iterates for the CSV pair, and a report derives its sample pairs,
diagonal and segments from its iterates and its curve from ``fn``, ``window`` and
``samples``.  Both must give the
bytes of the reference writers: ``csv.writer`` rows, and JSON in the encoder's layout
from a printer of its own.  The JSON holds only the record, so every derived view,
the curve among them, must be rebuilt from it, bit for bit.
"""

import json
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjsmap import (
    CharFn,
    Orientation,
    cobweb,
    figure_bundle,
    report_to_dict,
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


def views_from_json(text: str) -> tuple:
    """``(fn_samples, diagonal_samples, cobweb_segments)`` rebuilt from a report's JSON.

    The curve is ``np.linspace(*window, samples)`` and ``fn`` at those points by Horner's
    rule; step ``k < drawn`` draws ``(x_k, x_k) -> (x_k, x_k+1) -> (x_k+1, x_k+1)``.
    """
    data = json.loads(text)
    xs = np.linspace(*data["window"], data["samples"])
    *lower, fxs = data["fn"]["coefficients"]
    for c in reversed(lower):
        fxs = fxs * xs + c
    xs, fxs, orbit = xs.tolist(), fxs.tolist(), data["iterates"]
    segments = []
    for k in range(data["drawn"]):
        a, b = orbit[k], orbit[k + 1]
        segments += [((a, a), (a, b)), ((a, b), (b, b))]
    return tuple(zip(xs, fxs)), tuple(zip(xs, xs)), tuple(segments)


def assert_rebuilt_from_json(report, json_text: str, curve_csv: str) -> None:
    """The views rebuilt from the JSON are the report's, and the curve CSV's rows bit for bit."""
    views = views_from_json(json_text)
    assert views == (report.fn_samples, report.diagonal_samples, report.cobweb_segments)
    assert curve_csv == "x,fn\n" + "".join(f"{x!r},{fx!r}\n" for x, fx in views[0])


def written(report) -> tuple[str, str, str]:
    with TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("r.json", "curve.csv", "cobweb.csv")]
        write_report_json(report, paths[0])
        write_report_csvs(report, *paths[1:])
        return tuple(path.read_bytes().decode("utf-8") for path in paths)


@given(polynomials(), st.floats(-2.0, 2.0), st.integers(1, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_reports_match_the_reference(fn, x0, steps, data):
    orbit = orbit_of(fn, x0, steps)
    report = cobweb(fn, x0, steps, data.draw(windows(orbit)))
    fn_samples, diagonal, segments, truncated = reference_cobweb_parts(
        fn, orbit, report.window, 512
    )
    assert list(report.iterates) == orbit
    assert report.fn_samples == fn_samples
    assert report.diagonal_samples == diagonal
    assert report.cobweb_segments == segments
    assert report.truncated_window is truncated
    files = written(report)
    assert files == (reference_report_json(report), *reference_report_csvs(report))
    assert_rebuilt_from_json(report, *files[:2])


def test_diverging_orbit_matches_the_reference():
    fn = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
    report = cobweb(fn, 0.85, 200, (-1e30, 1e30))
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
        assert_rebuilt_from_json(report, Path(f"{stem}.json").read_text(), curve)


def test_report_with_inf_raises_the_standard_error(tmp_path):
    fn = CharFn((0.0, 0.0, 1.0), Orientation.OSCILLATOR)
    report = cobweb(fn, 2.0, 20, bound=1e300)
    assert report.iterates[-1] == float("inf")
    with pytest.raises(ValueError) as want:
        json.dumps(report_to_dict(report), indent=2, allow_nan=False)
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
