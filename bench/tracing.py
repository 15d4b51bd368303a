"""Spans around the public calls the CLI handlers make, for the traced run.

The CLI itself is not changed.  While :meth:`Tracer.patched` is active, the
names that ``gjsmap.cli`` looks up at call time (library functions, ``json``,
``print``, ``Path`` and the parser's ``parse_args``) are replaced by wrappers
that record a span per call, so ``cli.main(argv)`` replays exactly the calls
its handler makes.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np
from gjsmap.charfun import CharFn, Orientation, derivative_at, evaluate, invertibility_region

#: Span name for each function ``gjsmap.cli`` imports, by layer.
CLI_SPANS = {
    "charfun.analyze": (
        "discriminant", "invertibility_boundary", "fixed_points", "classify_region"
    ),
    "gsl2.solve": ("cut_condition_solve", "periodic_condition_solve"),
    "gsl2.build": ("build_gsl2",),
    "gsl2.verify": ("verify_gsl2_relations",),
    "gsl2.export": ("matrix_J0", "matrix_Jplus", "matrix_Jminus", "casimir_gsl2", "gsl2_to_dict"),
    "gha.build": ("build_gha",),
    "gha.verify": ("verify_gha_relations",),
    "gha.export": ("matrix_H", "matrix_A", "matrix_Adag", "matrix_N", "casimir_gha", "gha_to_dict"),
    "jsmap.build": ("build_jsmap",),
    "jsmap.to_dict": ("jsmap_to_dict",),
    "jsmap.verify": ("verify_map_equals_gsl2", "verify_jsmap_relations"),
    "jsmap.pairing": ("derive_pairing", "verify_pairing_identity"),
    "orbit.cobweb": ("cobweb",),
    "orbit.figure": ("figure_bundle",),
    "orbit.write": ("write_bundle", "write_report_json", "write_report_csvs"),
    "cli.parser": ("build_parser",),
    "cli.write": ("write_matrix_csv",),
}

JOB_SPAN = "cli.dispatch"
PROBE_SPAN = "charfun.grid_eval"


class Tracer:
    """In-memory spans ``[id, parent, job, name, start, end]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, self.job, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func, count=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if count is not None:
                count(result)
            return result

        return traced

    def _count_roots(self, result):
        included = getattr(result, "included", result)
        self.counts["gsl2.roots_found"] += len(included) + len(getattr(result, "excluded", ()))
        self.counts["gsl2.roots_included"] += len(included)

    def _count_gha(self, rep):
        self.counts["gha.states"] += rep.dim

    def _count_jsmap(self, rep):
        mats = (rep.s_z, rep.s_plus, rep.s_minus, rep.s_sq)
        self.counts["jsmap.states"] += rep.dim
        self.counts["jsmap.stored_entries"] += sum(m.entries.size for m in mats)
        self.counts["jsmap.nonzero_entries"] += sum(int((m.entries != 0.0).sum()) for m in mats)

    def _count_encoded(self, text):
        self.counts["cli.encode_bytes"] += len(text.encode("utf-8"))

    @contextlib.contextmanager
    def patched(self, cli):
        """Route ``cli``'s calls through spans; restores every name on exit."""
        counters = {
            "cut_condition_solve": self._count_roots,
            "periodic_condition_solve": self._count_roots,
            "build_gha": self._count_gha,
            "build_jsmap": self._count_jsmap,
        }
        patches = [
            (cli, attr, self.wrap(name, getattr(cli, attr), counters.get(attr)))
            for name, attrs in CLI_SPANS.items()
            for attr in attrs
        ]
        tracer = self

        class TracedPath(type(Path())):
            def write_text(self, *args, **kwargs):
                with tracer.span("cli.write"):
                    return super().write_text(*args, **kwargs)

        proxy = types.SimpleNamespace(
            dumps=self.wrap("cli.encode", json.dumps, self._count_encoded),
            loads=json.loads,
            JSONDecodeError=json.JSONDecodeError,
        )
        patches += [
            (cli, "json", proxy),
            (cli, "Path", TracedPath),
            (cli, "print", self.wrap("cli.write", print)),
            (cli._Parser, "parse_args", self.wrap("cli.parse", cli._Parser.parse_args)),
        ]
        saved = [(obj, attr, vars(obj).get(attr, _MISSING)) for obj, attr, _ in patches]
        try:
            for obj, attr, value in patches:
                setattr(obj, attr, value)
            yield
        finally:
            for obj, attr, old in reversed(saved):
                if old is _MISSING:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, old)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            totals[name] += (end - start) - child[sid]
        return dict(totals)

    def dump(self, path: Path) -> None:
        rows = [
            {"id": s[0], "parent": s[1], "job": s[2], "name": s[3], "layer": s[3].split(".")[0],
             "start": s[4], "end": s[5]}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


_MISSING = object()


def grid_probe(tracer: Tracer, coeffs, d: int, kind: str, window: float, step: float) -> None:
    """Evaluate the closure function and its derivative on the solver's grid.

    Uses only public ``gjsmap.charfun`` calls, with the grid the CLI's scan
    builds (``window`` either side of the vertex at spacing ``step``), so the
    vectorised evaluation cost is measured apart from the solver's
    bookkeeping.
    """
    gn = CharFn(tuple(coeffs), Orientation.WEIGHT)
    center = invertibility_region(gn)[1]
    n = max(int(math.ceil(2.0 * window / step)) + 1, 2)
    with tracer.span(PROBE_SPAN), np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(center - window, center + window, n)
        y, slope = xs, 1.0
        for _ in range(d):
            slope = slope * derivative_at(gn, y)
            y = evaluate(gn, y)
        y = xs + y + 1.0 if kind == "cut" else y - xs
    tracer.counts["charfun.grid_samples"] += n
