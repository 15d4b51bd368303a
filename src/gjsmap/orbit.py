"""Cobweb-style orbit traces and the stock figure bundles.

A cobweb trace alternates vertical moves onto the curve ``y = f(x)`` and
horizontal moves back to the diagonal ``y = x``, visualizing how an orbit
approaches (or escapes) a fixed point.  Reports carry everything an external
plotter needs: the curve's sample count, the full iterate sequence and how
many of its steps are drawn, fixed points with stability labels, the
invertibility boundary and optional guide lines.

The iterate sequence runs until the requested step count or the divergence
bound; leaving the plot window only stops the drawn segments, not the
recorded orbit.

A report stores the iterates, the number of drawn steps and of curve
samples, and derives the curve, the diagonal and the segments.  Its JSON is
that record, each fact once; the CSV pair is the plot table, the curve as
``x,fn`` (``np.linspace(*window, samples)`` and ``fn`` there; ``x`` is the
diagonal too) and one row per segment.  The JSON is encoded like every other
record, by ``OutputEncoder``; the curve is evaluated and formatted only when its
CSV is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Optional

from ._np import np
from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    FixedPointInfo,
    Orientation,
    RegionLabel,
    classify_region,
    fixed_points,
    invertibility_boundary,
    iterate,
)
from .encoding import OutputEncoder, _record_data
from .errors import (
    NoRealFixedPoint,
    NotQuadratic,
    OverflowDiverged,
    UnsupportedDiscriminant,
    or_none,
)
from .roots import _horner

#: Number of curve samples taken across the window.
DEFAULT_SAMPLES = 512

#: Fractional padding added around the landmark span of a stock figure.
WINDOW_PAD = 0.2

Point = tuple[float, float]
Segment = tuple[Point, Point]


@dataclass(frozen=True)
class GuideLine:
    """A labelled vertical or horizontal marker line."""

    axis: str  # "vertical" or "horizontal"
    value: float
    label: str

    to_dict = _record_data


def _curve(fn: CharFn, window: tuple[float, float], samples: int):
    """``np.linspace(*window, samples)`` and ``fn`` at those points, as arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(*window, samples)
        return xs, _horner(fn.coefficients, xs)


def _segment_rows(orbit, drawn: int):
    """``(x1, y1, x2, y2)`` of each segment that the first ``drawn`` steps of ``orbit`` draw.

    Step ``k`` draws ``(x_k, x_k) -> (x_k, x_k+1)``, then ``-> (x_k+1, x_k+1)``.
    """
    for a, b in zip(orbit, orbit[1 : drawn + 1]):
        yield a, a, a, b
        yield a, b, b, b


@dataclass(frozen=True)
class OrbitReport:
    """One orbit of one characteristic function, with the number of its curve samples.

    The fields are the record; ``sample_x``, ``sample_fx`` and the views built on them are
    derived from ``fn``, ``window`` and ``samples``, each view from one evaluation of the
    curve, and the segments from ``drawn`` steps.
    """

    fn: CharFn
    x0: float
    window: tuple[float, float]
    steps: int
    iterates: tuple[float, ...]
    truncated_divergence: bool
    truncated_window: bool
    drawn: int
    samples: int
    fixed_points: tuple[FixedPointInfo, ...]
    boundary: Optional[float]
    region_label: Optional[RegionLabel]
    guide_lines: tuple[GuideLine, ...] = ()

    @property
    def sample_x(self) -> tuple[float, ...]:
        return tuple(_curve(self.fn, self.window, self.samples)[0].tolist())

    @property
    def sample_fx(self) -> tuple[float, ...]:
        return tuple(_curve(self.fn, self.window, self.samples)[1].tolist())

    @property
    def fn_samples(self) -> tuple[Point, ...]:
        xs, fx = _curve(self.fn, self.window, self.samples)
        return tuple(zip(xs.tolist(), fx.tolist()))

    @property
    def diagonal_samples(self) -> tuple[Point, ...]:
        xs = self.sample_x
        return tuple(zip(xs, xs))

    @property
    def cobweb_segments(self) -> tuple[Segment, ...]:
        """The drawn segments, laid out by :func:`_segment_rows`."""
        rows = _segment_rows(self.iterates, self.drawn)
        return tuple(((x1, y1), (x2, y2)) for x1, y1, x2, y2 in rows)


def cobweb(
    fn: CharFn,
    x0: float,
    steps: int,
    window: Optional[tuple[float, float]] = None,
    bound: float = DIVERGENCE_BOUND,
    guide_lines: tuple[GuideLine, ...] = (),
) -> OrbitReport:
    """Trace ``steps`` iterations of ``fn`` from ``x0`` over ``window``.

    The segment list starts on the diagonal at ``(x0, x0)`` and alternates
    vertical/horizontal moves; consecutive segments share endpoints exactly
    and the x-coordinates of the horizontal endpoints replay the iterate
    sequence bit for bit.  Segments stop at the first point outside the
    window (``truncated_window``); iterates stop only at the divergence
    bound (``truncated_divergence``).  The default window pads the span of
    ``x0``, the fixed points and the invertibility boundary.  The curve is
    ``DEFAULT_SAMPLES`` points across the window, each of which must be finite.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    fps = tuple(or_none((NoRealFixedPoint, ValueError), fixed_points, fn) or ())
    boundary = or_none(NotQuadratic, invertibility_boundary, fn)
    if window is None:
        extra = () if boundary is None else (boundary,)
        window = _window_from_landmarks((x0, *(fp.location for fp in fps), *extra))
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be a non-empty interval")
    truncated_divergence = False
    try:
        orbit = iterate(fn, x0, steps, bound=bound)
    except OverflowDiverged as exc:
        orbit = exc.iterates
        truncated_divergence = True

    # the segments draw every step up to the first iterate outside the window;
    # a lone start value draws nothing, so no window cuts it
    outside = next((k for k, x in enumerate(orbit) if not lo <= x <= hi), len(orbit))
    truncated_window = outside < len(orbit) and len(orbit) > 1
    drawn = min(outside, len(orbit) - 1)

    # a non-finite x gives a non-finite fn(x)
    if not np.isfinite(_curve(fn, (lo, hi), DEFAULT_SAMPLES)[1]).all():
        raise ValueError(f"the curve samples on the window [{lo!r}, {hi!r}] are not finite")

    return OrbitReport(
        fn=fn,
        x0=float(x0),
        window=(lo, hi),
        steps=steps,
        iterates=tuple(orbit),
        truncated_divergence=truncated_divergence,
        truncated_window=truncated_window,
        drawn=drawn,
        samples=DEFAULT_SAMPLES,
        fixed_points=fps,
        boundary=boundary,
        region_label=or_none((NotQuadratic, UnsupportedDiscriminant), classify_region, fn, x0),
        guide_lines=tuple(guide_lines),
    )


class FigureName(Enum):
    FIG1 = "fig1"
    FIG2 = "fig2"
    FIG3 = "fig3"
    FIG4 = "fig4"


@dataclass(frozen=True)
class FigureBundle:
    """Named orbit reports making up one stock figure."""

    name: str
    reports: tuple[tuple[str, OrbitReport], ...]

    def report(self, series: str) -> OrbitReport:
        for key, rep in self.reports:
            if key == series:
                return rep
        raise KeyError(series)


def _window_from_landmarks(landmarks) -> tuple[float, float]:
    """The landmarks' span padded by ``WINDOW_PAD`` on each side.

    A span narrower than 1e-9 (a single landmark) is first widened by 1 on
    each side.
    """
    lo, hi = min(landmarks), max(landmarks)
    if hi - lo < 1e-9:
        lo, hi = lo - 1.0, hi + 1.0
    pad = WINDOW_PAD * (hi - lo)
    return (lo - pad, hi + pad)


_FIG1_FN = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
_FIG2_GN = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)
_FIG4_FN = CharFn((1.0, 3.0, 1.0), Orientation.OSCILLATOR)


def figure_bundle(name, bound: float = DIVERGENCE_BOUND) -> FigureBundle:
    """Orbit reports with the stock parameters of the four study figures.

    fig1: tangent oscillator quadratic, one orbit creeping up to the fixed
    point at 0.7 and one escaping to infinity.  fig2: tangent weight
    quadratic, an orbit escaping to minus infinity.  fig3: the two-state
    closure orbit from 0.33479 landing on the cut line after two steps.
    fig4: a reflection-paired oscillator/weight couple with mirrored orbits
    from -0.15 and 0.15.  Every orbit but fig3's runs 200 steps.
    """
    name = FigureName(name.lower() if isinstance(name, str) else name)

    def trace(fn, x0, landmarks, n=200, guides=()):
        window = _window_from_landmarks(landmarks)
        return cobweb(fn, x0, n, window, bound=bound, guide_lines=guides)

    if name is FigureName.FIG1:
        landmarks = (0.5, 0.7, 0.56, 0.85)
        series = (("a", trace(_FIG1_FN, 0.56, landmarks)), ("b", trace(_FIG1_FN, 0.85, landmarks)))
    elif name is FigureName.FIG2:
        series = (("b", trace(_FIG2_GN, -0.05, (1.0, 1.5, -0.05))),)
    elif name is FigureName.FIG3:
        alpha_j = 0.33479
        cut_value = -alpha_j - 1.0
        guide = GuideLine("vertical", cut_value, "cut line: -alpha_j - 1")
        series = (("a", trace(_FIG2_GN, alpha_j, (1.0, 1.5, alpha_j, cut_value), 2, (guide,))),)
    else:
        series = (("oscillator", trace(_FIG4_FN, -0.15, (-1.0, -1.5, -0.15))),
                  ("weight", trace(_FIG2_GN, 0.15, (1.0, 1.5, 0.15))))
    return FigureBundle(name.value, series)


def report_to_dict(report: OrbitReport) -> dict:
    """The report's fields by :func:`_record_data`, ``region_label`` written as ``region``; the
    derived views are not written, since the fields rebuild them."""
    return {("region" if k == "region_label" else k): v for k, v in _record_data(report).items()}


def write_report_json(report: OrbitReport, path) -> None:
    """The report's record, :func:`report_to_dict`, as indented JSON."""
    text = json.dumps(report_to_dict(report), cls=OutputEncoder, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_report_csvs(report: OrbitReport, curve_path, cobweb_path) -> None:
    """CSV pair: curve samples (``x,fn``), from one evaluation of the curve, and cobweb
    segments, from the drawn iterates.

    A float's repr never needs CSV quoting, so each row is its fields joined by commas.
    """
    xs, fx = _curve(report.fn, report.window, report.samples)
    curve = zip(map(float.__repr__, xs.tolist()), map(float.__repr__, fx.tolist()))
    drawn = list(map(float.__repr__, report.iterates[: report.drawn + 1]))
    for path, header, rows in (
        (curve_path, ("x", "fn"), curve),
        (cobweb_path, ("x1", "y1", "x2", "y2"), _segment_rows(drawn, report.drawn)),
    ):
        text = "\n".join(map(",".join, chain((header,), rows, ((),))))
        Path(path).write_text(text, encoding="utf-8", newline="")


def _write_report(report: OrbitReport, out: Path, stem: str) -> list[str]:
    """Write a report's ``stem.json`` and its curve/cobweb CSV pair into ``out``; the names."""
    names = [f"{stem}.json", f"{stem}_curve.csv", f"{stem}_cobweb.csv"]
    write_report_json(report, out / names[0])
    write_report_csvs(report, out / names[1], out / names[2])
    return names


def write_bundle(bundle: FigureBundle, out_dir) -> list[str]:
    """Write every report of a bundle; returns the created file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [name for series, report in bundle.reports
            for name in _write_report(report, out, f"{bundle.name}_{series}")]
