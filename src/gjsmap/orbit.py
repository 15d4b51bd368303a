"""Cobweb-style orbit traces and the stock figure bundles.

A cobweb trace alternates vertical moves onto the curve ``y = f(x)`` and
horizontal moves back to the diagonal ``y = x``, visualizing how an orbit
approaches (or escapes) a fixed point.  Reports carry everything an external
plotter needs: curve samples, the diagonal, the segment list, the full
iterate sequence, fixed points with stability labels, the invertibility
boundary and optional guide lines.

The iterate sequence runs until the requested step count or the divergence
bound; leaving the plot window only stops the drawn segments, not the
recorded orbit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    FixedPointInfo,
    Orientation,
    RegionLabel,
    _horner,
    charfn_to_dict,
    classify_region,
    fixed_points,
    invertibility_boundary,
    iterate,
)
from .errors import (
    NoRealFixedPoint,
    NotQuadratic,
    OverflowDiverged,
    UnsupportedDiscriminant,
)

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

    def to_dict(self) -> dict:
        return {"axis": self.axis, "value": self.value, "label": self.label}


@dataclass(frozen=True)
class OrbitReport:
    """Plot-ready data for one orbit of one characteristic function."""

    fn: CharFn
    x0: float
    window: tuple[float, float]
    steps: int
    iterates: tuple[float, ...]
    truncated_divergence: bool
    truncated_window: bool
    fn_samples: tuple[Point, ...]
    diagonal_samples: tuple[Point, ...]
    cobweb_segments: tuple[Segment, ...]
    fixed_points: tuple[FixedPointInfo, ...]
    boundary: Optional[float]
    region_label: Optional[RegionLabel]
    guide_lines: tuple[GuideLine, ...] = ()


def cobweb(
    fn: CharFn,
    x0: float,
    steps: int,
    window: tuple[float, float],
    samples: int = DEFAULT_SAMPLES,
    bound: float = DIVERGENCE_BOUND,
    guide_lines: tuple[GuideLine, ...] = (),
) -> OrbitReport:
    """Trace ``steps`` iterations of ``fn`` from ``x0`` over ``window``.

    The segment list starts on the diagonal at ``(x0, x0)`` and alternates
    vertical/horizontal moves; consecutive segments share endpoints exactly
    and the x-coordinates of the horizontal endpoints replay the iterate
    sequence bit for bit.  Segments stop at the first point outside the
    window (``truncated_window``); iterates stop only at the divergence
    bound (``truncated_divergence``).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be a non-empty interval")
    truncated_divergence = False
    try:
        orbit = iterate(fn, x0, steps, bound=bound)
    except OverflowDiverged as exc:
        orbit = exc.iterates
        truncated_divergence = True

    segments: list[Segment] = []
    truncated_window = False
    prev_y = orbit[0]
    for k in range(len(orbit) - 1):
        x, y = orbit[k], orbit[k + 1]
        if not (lo <= x <= hi):
            truncated_window = True
            break
        segments.append(((x, prev_y), (x, y)))
        segments.append(((x, y), (y, y)))
        prev_y = y
        if not (lo <= y <= hi):
            truncated_window = True
            break

    xs = np.linspace(lo, hi, samples)
    ys = _horner(fn.coefficients, xs)
    fn_samples = tuple((float(x), float(y)) for x, y in zip(xs, ys))
    diagonal = tuple((float(x), float(x)) for x in xs)

    try:
        fps = tuple(fixed_points(fn))
    except (NoRealFixedPoint, ValueError):
        fps = ()
    try:
        boundary = invertibility_boundary(fn)
    except NotQuadratic:
        boundary = None
    try:
        region = classify_region(fn, x0)
    except (NotQuadratic, UnsupportedDiscriminant):
        region = None

    return OrbitReport(
        fn=fn,
        x0=float(x0),
        window=(lo, hi),
        steps=steps,
        iterates=tuple(orbit),
        truncated_divergence=truncated_divergence,
        truncated_window=truncated_window,
        fn_samples=fn_samples,
        diagonal_samples=diagonal,
        cobweb_segments=tuple(segments),
        fixed_points=fps,
        boundary=boundary,
        region_label=region,
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


def figure_bundle(
    name, steps: int = 200, bound: float = DIVERGENCE_BOUND
) -> FigureBundle:
    """Orbit reports with the stock parameters of the four study figures.

    fig1: tangent oscillator quadratic, one orbit creeping up to the fixed
    point at 0.7 and one escaping to infinity.  fig2: tangent weight
    quadratic, an orbit escaping to minus infinity.  fig3: the two-state
    closure orbit from 0.33479 landing on the cut line after two steps.
    fig4: a reflection-paired oscillator/weight couple with mirrored orbits
    from -0.15 and 0.15.
    """
    name = FigureName(name.lower() if isinstance(name, str) else name)
    if name is FigureName.FIG1:
        window = _window_from_landmarks((0.5, 0.7, 0.56, 0.85))
        return FigureBundle(
            name.value,
            (
                ("a", cobweb(_FIG1_FN, 0.56, steps, window, bound=bound)),
                ("b", cobweb(_FIG1_FN, 0.85, steps, window, bound=bound)),
            ),
        )
    if name is FigureName.FIG2:
        window = _window_from_landmarks((1.0, 1.5, -0.05))
        return FigureBundle(
            name.value,
            (("b", cobweb(_FIG2_GN, -0.05, steps, window, bound=bound)),),
        )
    if name is FigureName.FIG3:
        alpha_j = 0.33479
        cut_value = -alpha_j - 1.0
        window = _window_from_landmarks((1.0, 1.5, alpha_j, cut_value))
        guide = GuideLine("vertical", cut_value, "cut line: -alpha_j - 1")
        return FigureBundle(
            name.value,
            (
                (
                    "a",
                    cobweb(
                        _FIG2_GN, alpha_j, 2, window, bound=bound, guide_lines=(guide,)
                    ),
                ),
            ),
        )
    window_f = _window_from_landmarks((-1.0, -1.5, -0.15))
    window_g = _window_from_landmarks((1.0, 1.5, 0.15))
    return FigureBundle(
        name.value,
        (
            ("oscillator", cobweb(_FIG4_FN, -0.15, steps, window_f, bound=bound)),
            ("weight", cobweb(_FIG2_GN, 0.15, steps, window_g, bound=bound)),
        ),
    )


def report_to_dict(report: OrbitReport) -> dict:
    return {
        "fn": charfn_to_dict(report.fn),
        "x0": report.x0,
        "window": list(report.window),
        "steps": report.steps,
        "iterates": list(report.iterates),
        "truncated_divergence": report.truncated_divergence,
        "truncated_window": report.truncated_window,
        "fixed_points": [fp.to_dict() for fp in report.fixed_points],
        "boundary": report.boundary,
        "region": report.region_label.value if report.region_label else None,
        "guide_lines": [g.to_dict() for g in report.guide_lines],
        "fn_samples": [list(p) for p in report.fn_samples],
        "diagonal_samples": [list(p) for p in report.diagonal_samples],
        "cobweb_segments": [
            [list(a), list(b)] for a, b in report.cobweb_segments
        ],
    }


def write_report_json(report: OrbitReport, path) -> None:
    payload = json.dumps(report_to_dict(report), indent=2, allow_nan=False)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def write_report_csvs(report: OrbitReport, curve_path, cobweb_path) -> None:
    """CSV pair: curve/diagonal samples and cobweb segments."""
    with open(curve_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "fn", "diagonal"])
        for (x, y), (_, d) in zip(report.fn_samples, report.diagonal_samples):
            writer.writerow([repr(x), repr(y), repr(d)])
    with open(cobweb_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "y1", "x2", "y2"])
        for (x1, y1), (x2, y2) in report.cobweb_segments:
            writer.writerow([repr(x1), repr(y1), repr(x2), repr(y2)])


def write_bundle(bundle: FigureBundle, out_dir) -> list[str]:
    """Write every report of a bundle; returns the created file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created = []
    for series, report in bundle.reports:
        stem = f"{bundle.name}_{series}"
        write_report_json(report, out / f"{stem}.json")
        write_report_csvs(
            report, out / f"{stem}_curve.csv", out / f"{stem}_cobweb.csv"
        )
        created.extend([f"{stem}.json", f"{stem}_curve.csv", f"{stem}_cobweb.csv"])
    return created
