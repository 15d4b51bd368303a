import csv
import json
import math
import re

import pytest

from gjsmap import (
    CharFn,
    Orientation,
    RegionLabel,
    Stability,
    cobweb,
    cut_condition_solve,
    evaluate,
    figure_bundle,
    iterate,
    report_to_dict,
    write_bundle,
)

FIG1_FN = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
FIG2_GN = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)


class TestCobweb:
    def test_segment_structure(self):
        report = cobweb(FIG1_FN, 0.56, 10, (0.4, 1.0))
        segments = report.cobweb_segments
        assert len(segments) == 20
        for k in range(0, len(segments), 2):
            (x_a, _), (x_b, y_vert) = segments[k]
            assert x_a == x_b
            assert y_vert == evaluate(FIG1_FN, x_a)
        for a, b in zip(segments, segments[1:]):
            assert a[1] == b[0]

    def test_faithfulness_to_iterates(self):
        report = cobweb(FIG1_FN, 0.56, 25, (0.0, 2.0))
        orbit = iterate(FIG1_FN, 0.56, 25)
        assert list(report.iterates) == orbit
        horizontal_ends = [seg[1][0] for seg in report.cobweb_segments[1::2]]
        assert [report.x0] + horizontal_ends == orbit

    def test_degenerate_on_fixed_point(self):
        report = cobweb(FIG1_FN, 0.7, 5, (0.4, 1.0))
        for (x1, y1), (x2, y2) in report.cobweb_segments:
            assert math.hypot(x2 - x1, y2 - y1) <= 1e-12
        assert report.region_label is RegionLabel.ON_FIXED_POINT

    def test_window_exit_keeps_iterates(self):
        report = cobweb(FIG1_FN, 0.85, 200, (0.4, 1.0))
        assert report.truncated_window
        assert report.truncated_divergence
        # segments stay near the window; iterates run on to the bound
        assert max(abs(p[1][0]) for p in report.cobweb_segments) < 2.0
        assert max(report.iterates) > 1e6

    @pytest.mark.parametrize("window", [(0.5, 0.5), (1.0, 0.4), (0.4, math.nan)])
    def test_empty_window_rejected(self, window):
        with pytest.raises(ValueError, match="non-empty interval"):
            cobweb(FIG1_FN, 0.56, 5, window)

    @pytest.mark.parametrize("samples", [0, 1, -3, True, False, 2.0, 512.0, "512", None])
    def test_samples_must_be_an_int_of_at_least_two(self, samples):
        message = re.escape(f"samples must be an int >= 2, not {samples!r}")
        with pytest.raises(ValueError, match=message):
            cobweb(FIG1_FN, 0.56, 5, (0.4, 1.0), samples=samples)

    def test_two_samples_are_the_window_ends(self):
        report = cobweb(FIG1_FN, 0.56, 5, (0.4, 1.0), samples=2)
        assert report.samples == 2
        assert report.sample_x == (0.4, 1.0)
        assert report.sample_fx == (0.625, 1.225)

    def test_divergence_to_minus_infinity(self):
        report = cobweb(FIG2_GN, -0.05, 100, (-0.4, 1.9))
        assert report.truncated_divergence
        assert min(report.iterates) < -1e6
        assert report.region_label is RegionLabel.DIVERGENT_INTERVAL

    def test_metadata_fields(self):
        report = cobweb(FIG1_FN, 0.56, 5, (0.4, 1.0), samples=32)
        assert report.boundary == 0.5
        assert len(report.fn_samples) == 32
        assert len(report.diagonal_samples) == 32
        (fp,) = report.fixed_points
        assert fp.stability is Stability.NEUTRAL_TANGENT
        assert report.region_label is RegionLabel.CONVERGENT_INTERVAL

    def test_non_classifiable_function(self):
        fn = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
        report = cobweb(fn, 0.0, 4, (-1.0, 6.0))
        assert report.boundary is None
        assert report.region_label is None
        assert report.fixed_points == ()


class TestFigureBundles:
    def test_unknown_series_is_a_key_error(self):
        with pytest.raises(KeyError, match="c"):
            figure_bundle("fig1").report("c")

    def test_fig1(self):
        bundle = figure_bundle("fig1")
        a = bundle.report("a")
        b = bundle.report("b")
        assert a.x0 == 0.56 and b.x0 == 0.85
        assert len(a.iterates) == 201
        assert all(x < y for x, y in zip(a.iterates, a.iterates[1:]))
        assert (a.fixed_points[0].location, a.boundary) == (0.7, 0.5)
        exceed = [i for i, v in enumerate(b.iterates) if v > 1e6]
        assert exceed and exceed[0] < 60

    def test_fig2(self):
        report = figure_bundle("fig2").report("b")
        below = [i for i, v in enumerate(report.iterates) if v < -1e6]
        assert below and below[0] < 40
        assert report.fixed_points[0].location == pytest.approx(1.0, abs=1e-12)
        assert report.boundary == 1.5

    def test_fig3_guide_line_and_orbit(self):
        report = figure_bundle("fig3").report("a")
        (guide,) = report.guide_lines
        assert guide.axis == "vertical"
        assert guide.value == pytest.approx(-1.33479, abs=1e-12)
        assert len(report.iterates) == 3
        # the quoted 5-digit start lands on the cut line to its own accuracy
        assert report.iterates[-1] == pytest.approx(guide.value, abs=1e-4)

    def test_fig3_closure_with_recomputed_root(self):
        root = cut_condition_solve(FIG2_GN, 2).included[0]
        orbit = iterate(FIG2_GN, root, 2)
        assert orbit[-1] == pytest.approx(-root - 1.0, abs=1e-9)

    def test_fig4_mirrored_orbits(self):
        bundle = figure_bundle("fig4")
        osc = bundle.report("oscillator")
        weight = bundle.report("weight")
        assert osc.x0 == -0.15 and weight.x0 == 0.15
        n = min(len(osc.iterates), len(weight.iterates))
        for f_val, g_val in zip(osc.iterates[:n], weight.iterates[:n]):
            assert g_val == pytest.approx(-f_val, abs=1e-12)
        assert osc.fixed_points[0].location == pytest.approx(-1.0, abs=1e-12)
        assert weight.fixed_points[0].location == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            figure_bundle("fig9")


class TestSerialization:
    def test_report_dict_round_trips_json(self):
        report = cobweb(FIG1_FN, 0.56, 5, (0.4, 1.0), samples=16)
        payload = json.dumps(report_to_dict(report), allow_nan=False)
        data = json.loads(payload)
        assert data["region"] == "convergent_interval"
        assert data["iterates"] == list(report.iterates)
        assert 2 * data["drawn"] == len(report.cobweb_segments)

    def test_write_bundle_files(self, tmp_path):
        files = write_bundle(figure_bundle("fig1"), tmp_path)
        assert files == [
            "fig1_a.json",
            "fig1_a_curve.csv",
            "fig1_a_cobweb.csv",
            "fig1_b.json",
            "fig1_b_curve.csv",
            "fig1_b_cobweb.csv",
        ]
        for name in files:
            assert (tmp_path / name).exists()
        with open(tmp_path / "fig1_a_curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "fn"]
        assert len(rows) == 513
        x, fn_val = (float(v) for v in rows[1])
        assert fn_val == evaluate(FIG1_FN, x)
        with open(tmp_path / "fig1_a_cobweb.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "y1", "x2", "y2"]
        raw = (tmp_path / "fig1_a_curve.csv").read_bytes()
        assert b"\r" not in raw

    def test_fig3_json_carries_guide_line(self, tmp_path):
        write_bundle(figure_bundle("fig3"), tmp_path)
        data = json.loads((tmp_path / "fig3_a.json").read_text())
        assert data["guide_lines"] == [
            {
                "axis": "vertical",
                "value": -1.33479,
                "label": "cut line: -alpha_j - 1",
            }
        ]
