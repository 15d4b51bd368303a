"""Command-line front end.

Every library operation is exposed as a subcommand producing deterministic
JSON on stdout (fixed field order, shortest round-trip float formatting) and
optional CSV/JSON files under ``--out``.  Exit codes: 0 on success, 1 on any
validation or construction error (output that cannot be encoded as JSON
included) and when stdout is closed before the output is written, 2 when a
verification report fails its tolerance.  The environment variable
``GJS_DIVERGENCE_BOUND`` overrides the default iterate bound of 1e12.
``jsmap verify`` iterates ``g`` once: the direct representation is built on
the map's orbit, held to that bound with the error its own orbit would raise.

A batch mode (``run --config jobs.json``) executes a list of jobs, each the
equivalent of one subcommand invocation with parameters given as JSON values;
all jobs are validated (no output path repeats or lies inside a declared
``--out`` directory) before any of them runs.

A well-formed request (the command, then its exact option strings, each at
most once) is parsed in one pass over that command's options.  Help,
abbreviations, repeats and every error go through argparse, so its help texts
and error messages are the only ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from importlib import import_module
from pathlib import Path

from ._np import np
from .errors import GjsError, NoRealFixedPoint, NotQuadratic, UnsupportedDiscriminant, or_none

#: Layer module to the names this module calls from it, bound as its globals when a command
#: group that calls the module first dispatches (:func:`_dispatch`) or when a name is read
#: from outside (:func:`__getattr__`).  A bind never replaces a name already set, such as a
#: test's patch; bench/tracing.py wraps ``write_report_json`` and ``write_report_csvs`` too.
_LAYERS = {
    "charfun": ("DIVERGENCE_BOUND", "CharFn", "charfn_to_dict", "classify_region",
                "discriminant", "fixed_points", "invertibility_boundary"),
    "gha": ("OperatorMatrix", "_readonly", "build_gha", "casimir_gha", "gha_csv_labels",
            "gha_to_dict", "matrix_A", "matrix_Adag", "matrix_H", "matrix_N",
            "verify_gha_relations", "write_matrix_csv"),
    "gsl2": ("_build_gsl2", "build_gsl2", "casimir_gsl2", "cut_condition_solve",
             "gsl2_csv_labels", "gsl2_to_dict", "matrix_J0", "matrix_Jminus", "matrix_Jplus",
             "periodic_condition_solve", "verify_gsl2_relations"),
    "jsmap": ("FixedJ", "FullGrid", "_build_jsmap", "build_jsmap", "derive_pairing",
              "jsmap_csv_labels", "jsmap_to_dict", "verify_jsmap_relations",
              "verify_map_equals_gsl2", "verify_pairing_identity"),
    "orbit": ("FigureBundle", "_write_report", "cobweb", "figure_bundle", "report_to_dict",
              "write_bundle", "write_report_csvs", "write_report_json"),
}

#: Command group to the layer modules its handlers call; ``run`` dispatches each job's group.
_GROUP_LAYERS = {
    "charfun": ("charfun",), "gha": ("charfun", "gha"), "gsl2": ("charfun", "gha", "gsl2"),
    "jsmap": ("charfun", "gha", "gsl2", "jsmap"), "orbit": ("charfun", "orbit"), "run": (),
}


@functools.cache
def _bind(layer: str) -> None:
    module = import_module(f".{layer}", __package__)
    for name in _LAYERS[layer]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    for layer, names in _LAYERS.items():
        if name in names:
            _bind(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    """Invalid invocation; maps to exit code 1."""


class _HelpRequested(CliError):
    """``--help`` was given; ``text`` is the help that only ``main`` prints."""

    def __init__(self, text: str):
        super().__init__("--help prints a help text, not a result")
        self.text = text


class _Parser(argparse.ArgumentParser):
    #: ``argv[:2]`` (``argv[:1]`` for ``run``) to its command's parser; empty but on the root.
    _commands: dict = {}

    def __init__(self, *args, **kwargs):
        import re  # argparse has loaded it already

        super().__init__(*args, **kwargs)
        # argparse takes only "-1" and "-1.5" for negative numbers, so it would
        # read "-1e-05", "-1/2", "-1,1", "-inf" or "-nan" as an option.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf(inity)?$|nan$)", re.IGNORECASE)

    def error(self, message):
        raise CliError(message)

    def _get_values(self, action, arg_strings):
        # argparse before Python 3.13 strips the "--" of "--flag=--" and passes [] on as the value
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if namespace is None and self._commands:
            parsed = self._parse_well_formed(args)
            if parsed is not None:
                return parsed, []
        return super().parse_known_args(args, namespace)

    def _parse_well_formed(self, argv) -> argparse.Namespace | None:
        """The namespace argparse gives ``argv``, in one pass; None unless it is well formed.

        Well formed is a command followed by plain store and store-const options
        by their exact strings: switches, ``--flag=value``, and ``--flag value``
        where a value that starts with "-" is a number; a repeat keeps its last
        value.  Every required option is given, and every value passes its type
        and lies in its choices.  argparse rescans the items once per parser
        level (root, group, command); this walks them once.  Anything else (help,
        abbreviations, stray items, "--" and every error) is left to argparse,
        so its texts stay the only ones.
        """
        path = tuple(argv[:2])
        if path not in self._commands:
            path = path[:1]
            if path not in self._commands:
                return None
        command = self._commands[path]
        options = command._option_string_actions
        given: dict = {}
        items = iter(argv[len(path):])
        for item in items:
            flag, inline, text = item.partition("=")  # "--flag=value", the value verbatim
            action = options.get(flag)  # no option string holds "="
            if not (isinstance(action, argparse._StoreConstAction) and not inline
                    or type(action) is argparse._StoreAction and action.nargs is None):
                return None
            if action.nargs == 0:
                value = action.const
            else:
                if not inline:  # "--flag value"; no value left reads as "-", which is declined
                    text = next(items, "-")
                    if text.startswith("-") and not self._negative_number_matcher.match(text):
                        return None
                try:
                    value = text if action.type is None else action.type(text)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
                if action.choices is not None and value not in action.choices:
                    return None
            given[action] = value
        values = {"group": path[0]}
        if len(path) > 1:
            values["command"] = path[1]
        for action in command._actions:
            if action in given:
                values[action.dest] = given[action]
            elif action.required:
                return None
            elif action.default is not argparse.SUPPRESS:  # all but help
                values[action.dest] = action.default
        for dest, value in command._defaults.items():
            values.setdefault(dest, value)
        return argparse.Namespace(**values)


def _charfn_arg(text: str) -> CharFn:
    from .charfun import charfn_from_dict

    try:
        return charfn_from_dict(json.loads(text))
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad characteristic function: {exc}")


def _two_j_arg(text: str) -> int:
    from fractions import Fraction

    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational j: {text!r}") from exc
    two_j = value * 2
    if two_j.denominator != 1 or two_j < 0:
        raise argparse.ArgumentTypeError("j must be a non-negative half-integer")
    return int(two_j)


def _window_arg(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad window {text!r}, want 'lo,hi'") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"window {text!r} is not finite")
    return (lo, hi)


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _real_arg(text: str) -> float:
    value = _float_arg(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance_arg(text: str) -> float:
    value = _float_arg(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite non-negative number")
    return value


def _perturb_arg(text: str):
    try:
        target, index_s, amount_s = text.split(":")
        indices = tuple(int(p) for p in index_s.split(","))
        amount = float(amount_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad perturbation {text!r}, want 'target:index[,index]:amount'"
        ) from exc
    if not math.isfinite(amount):
        raise argparse.ArgumentTypeError(f"perturbation amount {amount_s!r} is not a finite number")
    return target.lower(), indices, amount


def _bound() -> float:
    raw = os.environ.get("GJS_DIVERGENCE_BOUND")
    if raw is None:
        return DIVERGENCE_BOUND
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not value > 0.0:
        raise CliError(f"bad GJS_DIVERGENCE_BOUND value {raw!r}")
    return value


#: ``--perturb`` target, aliases included, to the representation field it
#: changes, per command group.
_PERTURB_FIELDS = {
    "gha": {"ladder": "ladder", "eigenvalues": "eigenvalues"},
    "gsl2": {"weights": "weights", "ladder_sq": "ladder_sq", "ladder-sq": "ladder_sq"},
    "jsmap": {
        "sz": "s_z", "s_z": "s_z", "splus": "s_plus", "s_plus": "s_plus",
        "sminus": "s_minus", "s_minus": "s_minus", "ssq": "s_sq", "s_sq": "s_sq",
    },
}


def _perturbed(rep, args):
    """``rep`` with the ``--perturb`` amount added to one entry of one field.

    Sequences take one non-negative index; matrices take ``row,col`` with
    numpy's indexing rules, on the one diagonal the matrix stores.
    """
    if args.perturb is None:
        return rep
    from dataclasses import replace

    target, indices, amount = args.perturb
    fields = _PERTURB_FIELDS[args.group]
    if target not in fields:
        raise CliError(f"unknown perturbation target {target!r}")
    value = getattr(rep, fields[target])
    is_matrix = isinstance(value, OperatorMatrix)
    if is_matrix and len(indices) != 2:
        raise CliError("matrix perturbation needs a row,col index")
    size = rep.dim if is_matrix else len(value)
    lowest = -size if is_matrix else 0
    if (not is_matrix and len(indices) != 1) or not all(lowest <= i < size for i in indices):
        raise CliError(f"perturbation index {indices} out of range")
    position = indices[0]
    if is_matrix:
        row, col = (i % size for i in indices)
        if col - row != value.offset:
            raise CliError(f"perturbation index {indices} is off the diagonal of {target}")
        position = min(row, col)
    entries = np.array(value.values if is_matrix else value)
    entries[position] += amount
    changed = replace(value, values=entries) if is_matrix else _readonly(entries)
    return replace(rep, **{fields[target]: changed})


def _verify(payload: dict, args, verify, rep) -> int:
    """Add the ``--verify`` report of the (perturbed) ``rep``; returns the exit code."""
    if args.perturb is not None and not args.verify:
        raise CliError("--perturb needs --verify")
    if not args.verify:
        return 0
    report = verify(_perturbed(rep, args), tol=args.tol)
    payload["verification"] = report.to_dict()
    return 0 if report.passed else 2


# Handlers return ``(payload, exit code, files)``.  ``files`` is None or a
# callable, called only under ``--out``, giving the ``{name: content}`` table
# of :func:`_write_files`; :func:`_labelled` pairs each matrix with its CSV labels.


def _labelled(labels, files: dict) -> dict:
    return {k: (v, labels) if isinstance(v, OperatorMatrix) else v for k, v in files.items()}


def cmd_charfun_analyze(args):
    fn = args.fn
    points = or_none(NoRealFixedPoint, fixed_points, fn) or []
    payload: dict = {
        "fn": charfn_to_dict(fn),
        "degree": fn.degree,
        "discriminant": or_none(NotQuadratic, discriminant, fn),
        "boundary": or_none(NotQuadratic, invertibility_boundary, fn),
        "fixed_points": [fp.to_dict() for fp in points],
    }
    if args.x0 is not None:
        payload["x0"] = args.x0
        region = or_none((NotQuadratic, UnsupportedDiscriminant), classify_region, fn, args.x0)
        payload["region"] = region.value if region else None
    return payload, 0, None


def cmd_gha_build(args):
    rep = build_gha(args.fn, args.alpha0, args.dim, bound=_bound())
    payload: dict = {"rep": gha_to_dict(rep)}
    code = _verify(payload, args, verify_gha_relations, rep)
    return payload, code, lambda: _labelled(gha_csv_labels(rep), {
        "gha_H.csv": matrix_H(rep),
        "gha_A.csv": matrix_A(rep),
        "gha_Adag.csv": matrix_Adag(rep),
        "gha_N.csv": matrix_N(rep),
        "gha_casimir.csv": casimir_gha(rep),
        "gha_rep.json": payload["rep"],
    })


def cmd_gsl2_build(args):
    rep = build_gsl2(
        args.gn, args.alphaj, args.dim, args.kind, cut_tol=args.cut_tol, bound=_bound()
    )
    payload: dict = {"rep": gsl2_to_dict(rep)}
    code = _verify(payload, args, verify_gsl2_relations, rep)
    return payload, code, lambda: _labelled(gsl2_csv_labels(rep), {
        "gsl2_J0.csv": matrix_J0(rep),
        "gsl2_Jplus.csv": matrix_Jplus(rep),
        "gsl2_Jminus.csv": matrix_Jminus(rep),
        "gsl2_casimir.csv": casimir_gsl2(rep),
        "gsl2_rep.json": payload["rep"],
    })


def cmd_gsl2_solve(args):
    """``gsl2 cut`` and ``gsl2 periodic``: one root isolator, two closure equations."""
    payload = {"gn": charfn_to_dict(args.gn), "d": args.d}
    if args.command == "cut":
        solutions = cut_condition_solve(args.gn, args.d)
        payload["included"] = list(solutions.included)
        payload["excluded"] = list(solutions.excluded)
    else:
        payload["roots"] = list(periodic_condition_solve(args.gn, args.d))
    return payload, 0, None


def _jsmap_mode(args):
    if args.full_grid is not None and args.j is not None:
        raise CliError("give either --j or --full-grid, not both")
    if args.full_grid is not None:
        return FullGrid(args.full_grid)
    if args.j is not None:
        return FixedJ(args.j)
    raise CliError("one of --j or --full-grid is required")


def cmd_jsmap_build(args):
    rep = build_jsmap(
        args.fn, args.alpha0, args.gn, args.alphaj, _jsmap_mode(args), bound=_bound()
    )
    payload: dict = {"rep": jsmap_to_dict(rep)}
    return payload, 0, lambda: _labelled(jsmap_csv_labels(rep), {
        "jsmap_Sz.csv": rep.s_z,
        "jsmap_Splus.csv": rep.s_plus,
        "jsmap_Sminus.csv": rep.s_minus,
        "jsmap_Ssq.csv": rep.s_sq,
        "jsmap_rep.json": payload["rep"],
    })


def cmd_jsmap_verify(args):
    if args.j is None:
        raise CliError("--j is required for verification")
    # One g orbit serves both sides: the map's, unbounded, is held to the bound for the direct.
    bound = _bound()
    jsrep, orbit = _build_jsmap(args.fn, args.alpha0, args.gn, args.alphaj, FixedJ(args.j), bound)
    jsrep = _perturbed(jsrep, args)
    direct = _build_gsl2(args.gn, args.alphaj, args.j + 1, args.kind, args.cut_tol, bound, orbit)
    map_report = verify_map_equals_gsl2(jsrep, direct, tol=args.tol)
    relation_report = verify_jsmap_relations(jsrep, tol=args.tol)
    passed = map_report.passed and relation_report.passed
    payload = {
        "map_vs_direct": map_report.to_dict(),
        "relations": relation_report.to_dict(),
        "passed": passed,
    }
    return payload, 0 if passed else 2, None


def cmd_jsmap_pairing(args):
    gn, alpha_j = derive_pairing(args.fn, args.alpha0)
    report = verify_pairing_identity(args.fn, args.alpha0, args.mmax, tol=args.tol)
    payload = {
        "fn": charfn_to_dict(args.fn),
        "gn_derived": charfn_to_dict(gn),
        "alpha0": args.alpha0,
        "alpha_j": alpha_j,
        "report": report.to_dict(),
    }
    return payload, 0 if report.passed else 2, None


def cmd_orbit_figure(args):
    bundle = figure_bundle(args.name, bound=_bound())
    payload = {
        "figure": bundle.name,
        "series": [series for series, _ in bundle.reports],
        "out_dir": str(args.out),
    }
    return payload, 0, lambda: {bundle.name: bundle}


def cmd_orbit_cobweb(args):
    report = cobweb(args.fn, args.x0, args.steps, args.window, bound=_bound())
    return {"report": report_to_dict(report)}, 0, lambda: {"cobweb": report}


def _job_argv(job: dict) -> list[str]:
    argv = list(str(job["command"]).split())
    for key, value in job.get("params", {}).items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:  # one "flag=value" item, so a value that starts with "-" is not read as an option
            argv.append(f"{flag}={json.dumps(value) if isinstance(value, dict) else value}")
    return argv


def cmd_run(args):
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read run config: {exc}") from exc
    jobs = config.get("jobs") if isinstance(config, dict) else None
    if not isinstance(jobs, list):
        raise CliError("run config needs a 'jobs' list")
    parser = build_parser()
    parsed = []
    declared_outputs: list[str] = []
    out_dirs: dict[Path, str] = {}  # absolute --out directory -> the job that declares it
    for pos, job in enumerate(jobs):
        if not isinstance(job, dict) or "command" not in job:
            raise CliError(f"job {pos} must be an object with a 'command'")
        name = str(job.get("name", f"job{pos}"))
        params, output = job.get("params", {}), job.get("output", "")
        if not (isinstance(params, dict) and isinstance(output, str)):
            raise CliError(f"job {name!r}: 'params' must be an object and 'output' a string")
        if "output" in job and os.path.basename(output) in ("", ".", ".."):
            raise CliError(f"job {name!r}: 'output' {output!r} names no file")
        argv = _job_argv(job)
        try:
            ns = parser.parse_args(argv)
        except CliError as exc:
            raise CliError(f"job {name!r} does not validate: {exc}") from exc
        if not hasattr(ns, "handler") or ns.handler is cmd_run:
            raise CliError(f"job {name!r} does not name a runnable subcommand")
        for declared in (job.get("output"), params.get("out")):
            if declared is not None:
                declared_outputs.append(os.path.abspath(str(declared)))
        if params.get("out") is not None:
            out_dirs[Path(os.path.abspath(str(params["out"])))] = name
        parsed.append((name, job, ns))
    if len(declared_outputs) != len(set(declared_outputs)):
        raise CliError("two jobs declare the same output path")
    for declared in declared_outputs:  # by path components, so "d.json" is not inside "d"
        for parent in Path(declared).parents:
            if parent in out_dirs:
                owner = out_dirs[parent]
                raise CliError(f"{declared!r} lies inside the --out directory of job {owner!r}")
    statuses = []
    for name, job, ns in parsed:
        entry: dict = {"name": name, "command": job["command"]}
        output = job.get("output")
        try:
            payload, code = _dispatch(ns)
            if output is not None:
                path = Path(output)
                _write_files(path.parent, {path.name: payload})
            else:  # a payload the run's stdout cannot hold fails this job, not the run
                _encode(payload)
        except (CliError, GjsError, ValueError, OSError, MemoryError) as exc:
            entry["status"] = "error"
            entry["error"] = _error_text(exc)
        else:
            entry["status"] = "ok" if code == 0 else "verification_failed"
            entry["exit_code"] = code
            if output is not None:
                entry["output"] = str(output)
            else:
                entry["payload"] = payload
        statuses.append(entry)
    codes = {entry.get("exit_code", 1) for entry in statuses}  # an error has no exit code
    return {"jobs": statuses}, 1 if 1 in codes else max(codes, default=0), None


def _error_text(exc: BaseException) -> str:
    """``"Type: message"`` of a caught ``exc``, made once the frames it left are cleared: a
    ``MemoryError``'s locals may hold what filled the memory, and formatting needs some."""
    tb = exc.__traceback__
    while tb is not None:
        try:
            tb.tb_frame.clear()
        except RuntimeError:  # the frame that caught ``exc``, still running
            pass
        tb = tb.tb_next
    return f"{type(exc).__name__}: {exc}"


def _encode(value) -> str:
    """The one JSON encoding, for stdout and every JSON file but the orbit reports'."""
    from .encoding import OutputEncoder

    try:
        return json.dumps(value, cls=OutputEncoder, indent=2, allow_nan=False)
    except ValueError as exc:
        raise _unencodable(exc) from exc


def _unencodable(exc: ValueError) -> CliError:
    return CliError(f"output cannot be encoded as JSON: {exc}")


def _write_files(out_dir, files: dict) -> list[str]:
    """Create ``out_dir`` and write ``files`` into it; returns the file names.

    A ``(matrix, labels)`` pair becomes ``name`` as CSV, a dict ``name`` as
    JSON, an orbit report ``name.json`` plus its curve/cobweb CSV pair, and a
    figure bundle its stock files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names: list[str] = []
    for name, content in files.items():
        if isinstance(content, tuple):
            write_matrix_csv(content[0], out / name, content[1])
            names.append(name)
        elif isinstance(content, dict):
            (out / name).write_text(_encode(content) + "\n", encoding="utf-8")
            names.append(name)
        else:  # only an orbit command returns these, so its dispatch has bound orbit
            try:
                if isinstance(content, FigureBundle):
                    names += write_bundle(content, out)
                else:
                    names += _write_report(content, out, name)
            except ValueError as exc:  # a report JSON with a non-finite number
                raise _unencodable(exc) from exc
    return names


def _dispatch(args) -> tuple[dict, int]:
    """Bind the group's layers once, run the handler, then write its files under ``--out``."""
    for layer in _GROUP_LAYERS[args.group]:
        _bind(layer)
    payload, code, files = args.handler(args)
    if files is not None and args.out is not None:
        payload["files"] = _write_files(args.out, files())
    return payload, code


def _option(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_FN = _option("--fn", type=_charfn_arg, required=True)
_GN = _option("--gn", type=_charfn_arg, required=True)
_ALPHA0 = _option("--alpha0", type=float, required=True)
_ALPHAJ = _option("--alphaj", type=float, required=True)
_DIM = _option("--dim", type=int, required=True)
_TOL = _option("--tol", type=_tolerance_arg, default=1e-10)
_VERIFY = [_option("--verify", action="store_true"), _TOL]
# build_parser loads no layer module, so the values it takes from gsl2 (CUT_ACCEPT_TOL, the
# RepKind values) and orbit (the FigureName values) are literals here; a test pins each one.
_CUT_TOL = _option("--cut-tol", type=_tolerance_arg, default=1e-4)
_OUT = _option("--out", default=None)
_KINDS = ["periodic", "cut", "truncated"]
_SHELL = [_FN, _ALPHA0, _GN, _ALPHAJ, _option(
    "--j", type=_two_j_arg, default=None, help="shell spin, e.g. 1/2"
)]
_SCAN = [_GN, _option("--d", type=int, required=True)]


def _perturb_option(example: str) -> tuple[str, dict]:
    return _option(
        "--perturb", type=_perturb_arg, default=None, help=f"negative control: {example}"
    )


_GROUPS = {
    "charfun": "characteristic function analysis",
    "gha": "oscillator-side representations",
    "gsl2": "weight-side representations",
    "jsmap": "two-oscillator realization",
    "orbit": "cobweb traces and figure bundles",
}

#: ``(group, command)``, or ``(command,)`` at top level, to
#: ``(help, handler, options)``.  ``build_parser`` turns this into the parser
#: that both ``main`` and batch mode use.
_COMMANDS = {
    ("charfun", "analyze"): ("fixed points, regions, boundary", cmd_charfun_analyze, [
        _option("--fn", type=_charfn_arg, required=True, help="CharFn JSON"),
        _option("--x0", type=_real_arg, default=None, help="start value to classify"),
    ]),
    ("gha", "build"): ("build a truncated ladder", cmd_gha_build, [
        _FN, _ALPHA0, _DIM, *_VERIFY,
        _option("--out", default=None, help="directory for CSV/JSON dumps"),
        _perturb_option("'ladder:IDX:AMOUNT' or 'eigenvalues:IDX:AMOUNT'"),
    ]),
    ("gsl2", "build"): ("build a highest-weight rep", cmd_gsl2_build, [
        _GN, _ALPHAJ, _DIM, _option("--kind", choices=_KINDS, required=True), _CUT_TOL,
        *_VERIFY, _OUT, _perturb_option("'weights:IDX:AMOUNT' or 'ladder_sq:IDX:AMOUNT'"),
    ]),
    ("gsl2", "cut"): ("solve the finite-cut condition", cmd_gsl2_solve, _SCAN),
    ("gsl2", "periodic"): ("solve the periodic condition", cmd_gsl2_solve, _SCAN),
    ("jsmap", "build"): ("build the mapped generators", cmd_jsmap_build, [
        *_SHELL, _option("--full-grid", type=int, default=None, metavar="DIM"), _OUT,
    ]),
    ("jsmap", "verify"): ("compare the map with the direct representation", cmd_jsmap_verify, [
        *_SHELL, _TOL,
        _option("--kind", choices=_KINDS, default="cut"), _CUT_TOL,
        _perturb_option("'splus:ROW,COL:AMOUNT' etc."),
    ]),
    ("jsmap", "pairing"): ("check the reflection-pairing identity", cmd_jsmap_pairing, [
        _FN, _ALPHA0, _option("--mmax", type=int, required=True), _TOL,
    ]),
    ("orbit", "figure"): ("write a stock figure bundle", cmd_orbit_figure, [
        _option("--name", choices=["fig1", "fig2", "fig3", "fig4"], required=True),
        _option("--out", required=True),
    ]),
    ("orbit", "cobweb"): ("trace one orbit", cmd_orbit_cobweb, [
        _FN,
        _option("--x0", type=_real_arg, required=True),
        _option("--steps", type=int, required=True),
        _option("--window", type=_window_arg, default=None),
        _OUT,
    ]),
    ("run",): ("batch mode from a JSON run config", cmd_run, [
        _option("--config", required=True),
    ]),
}


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process.

    It depends only on the module's tables, and parsing does not change it,
    so ``main`` and batch mode share one instance.  Callers must not modify
    it.
    """
    parser = _Parser(
        prog="gjsmap",
        description=(
            "Matrix representations of generalized oscillator and weight "
            "algebras, and the two-oscillator map between them."
        ),
    )
    sub = parser.add_subparsers(dest="group")
    groups = {
        name: sub.add_parser(name, help=text).add_subparsers(dest="command")
        for name, text in _GROUPS.items()
    }
    parser._commands = {}
    for path, (text, handler, options) in _COMMANDS.items():
        parent = groups[path[0]] if len(path) > 1 else sub
        command = parent.add_parser(path[-1], help=text)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler)
        parser._commands[path] = command
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            raise _HelpRequested(parser.format_help())
        payload, code = _dispatch(args)
        text = _encode(payload)
    except _HelpRequested as exc:
        print(exc.text, end="")
        return 0
    except CliError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except (GjsError, ValueError, OSError, MemoryError) as exc:
        print(json.dumps({"error": _error_text(exc)}), file=sys.stderr)
        return 1
    print(text)
    return code


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:  # the reader closed stdout early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet the exit flush
        print(json.dumps({"error": f"BrokenPipeError: {exc}"}), file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
