"""The exported API: its names, its annotations, and every defaulted parameter of every function.

A public name added or removed shows as a one-line diff of ``EXPORTS``, and a
knob as one of ``SETTINGS``.  A setting belongs here only when some caller
passes a second value or the callee cannot work the value out itself;
otherwise it is a constant.
"""

import ast
import copy
import dataclasses
import inspect
import math
import pickle
import typing
from pathlib import Path

import pytest

import gjsmap
from gjsmap import errors

#: ``gjsmap.__all__``, by the module that defines each name; the submodules come last.
EXPORTS = {
    # charfun
    "DIVERGENCE_BOUND", "CharFn", "FixedPointInfo", "OneSidedBehavior", "Orientation",
    "RegionLabel", "Stability", "charfn_from_dict", "charfn_to_dict", "classify_region",
    "derivative_at", "discriminant", "evaluate", "fixed_points", "invertibility_boundary",
    "invertibility_region", "iterate", "reflection_pair",
    # errors
    "CutResidualTooLarge", "DescentViolation", "DimensionMismatch", "FixedPointVacuum",
    "GjsError", "InvalidHighestWeight", "InvalidVacuum", "NegativeLadderSquare",
    "NegativeNormSquared", "NoRealFixedPoint", "NotQuadratic", "OutOfBasis",
    "OverflowDiverged", "PeriodicResidualTooLarge", "UnsupportedDiscriminant",
    # gha
    "GhaRep", "OperatorMatrix", "ResidualReport", "build_gha", "casimir_gha",
    "gauss_factorial", "gauss_numbers", "gha_to_dict", "matrix_A", "matrix_Adag", "matrix_H",
    "matrix_N", "verify_gha_relations", "write_matrix_csv",
    # gsl2
    "CutSolutions", "Gsl2Rep", "RepKind", "build_gsl2", "casimir_gsl2", "cut_condition_solve",
    "gsl2_to_dict", "matrix_J0", "matrix_Jminus", "matrix_Jplus", "periodic_condition_solve",
    "verify_gsl2_relations",
    # jsmap
    "FixedJ", "FullGrid", "JsMapRep", "PairingReport", "TwoOscillatorSpace", "build_jsmap",
    "build_state_vector", "derive_pairing", "functional_F", "functional_G", "jsmap_to_dict",
    "two_oscillator_space", "verify_jsmap_relations", "verify_map_equals_gsl2",
    "verify_pairing_identity",
    # orbit
    "FigureBundle", "FigureName", "GuideLine", "OrbitReport", "cobweb", "figure_bundle",
    "report_to_dict", "write_bundle", "write_report_csvs", "write_report_json",
    # roots
    "find_roots",
    # the submodules
    "charfun", "encoding", "errors", "gha", "gsl2", "jsmap", "orbit", "roots",
}

#: Function name -> its defaulted parameters, in signature order.
SETTINGS = {
    "build_gha": ["bound"],
    "build_gsl2": ["cut_tol", "bound"],
    "build_jsmap": ["bound"],
    "cobweb": ["window", "bound", "guide_lines"],
    "figure_bundle": ["bound"],
    "iterate": ["bound"],
    "two_oscillator_space": ["bound"],
    "verify_gha_relations": ["tol"],
    "verify_gsl2_relations": ["tol"],
    "verify_jsmap_relations": ["tol"],
    "verify_map_equals_gsl2": ["tol"],
    "verify_pairing_identity": ["tol"],
}


def test_exported_settings_match_the_table():
    found = {}
    for name in gjsmap.__all__:
        function = getattr(gjsmap, name)
        if inspect.isfunction(function):
            parameters = inspect.signature(function).parameters.values()
            defaulted = [p.name for p in parameters if p.default is not p.empty]
            if defaulted:
                found[name] = defaulted
    assert found == SETTINGS


def test_exported_names_match_the_table():
    assert set(gjsmap.__all__) == EXPORTS


def test_exported_annotations_resolve():
    unresolved = {}
    for name in gjsmap.__all__:
        obj = getattr(gjsmap, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            try:
                typing.get_type_hints(obj)
            except NameError as error:
                unresolved[name] = str(error)
    assert unresolved == {}


def test_only_the_np_module_imports_numpy():
    # Every other module reads numpy through ``gjsmap._np.np``, so ``import gjsmap`` stays
    # numpy-free by one rule in one place.
    importers = set()
    for path in Path(gjsmap.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.add(path.name)
    assert importers == {"_np.py"}


def test_no_source_line_is_longer_than_100_columns():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(Path(gjsmap.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


#: One instance of each class of ``gjsmap.errors``.
ERRORS = [
    errors.GjsError("any"),
    errors.OverflowDiverged("iterate 2 = inf exceeds the bound 1e12", [0.5, 3.0, math.inf]),
    errors.NoRealFixedPoint("none"),
    errors.NotQuadratic("degree is 3, need 2"),
    errors.UnsupportedDiscriminant("nonzero"),
    errors.InvalidVacuum("outside"),
    errors.InvalidHighestWeight("outside"),
    errors.NegativeNormSquared(2, -0.5),
    errors.FixedPointVacuum("fixed"),
    errors.NegativeLadderSquare(1, -1e-3),
    errors.DescentViolation(3, 1.5),
    errors.CutResidualTooLarge("far"),
    errors.PeriodicResidualTooLarge("far"),
    errors.DimensionMismatch("3 against 4"),
    errors.OutOfBasis("(5, 5)"),
]


#: The attributes an error may carry besides its message.
ATTRIBUTES = ("iterates", "index", "value")


def test_the_error_table_holds_every_error_class():
    public = {cls for name, cls in vars(errors).items()
              if isinstance(cls, type) and issubclass(cls, errors.GjsError) and name[0] != "_"}
    assert sorted(type(error).__name__ for error in ERRORS) == sorted(c.__name__ for c in public)


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
def test_errors_copy_and_pickle(error):
    attributes = [getattr(error, name, None) for name in ATTRIBUTES]
    for copied in (copy.copy(error), copy.deepcopy(error), pickle.loads(pickle.dumps(error))):
        assert type(copied) is type(error)
        assert str(copied) == str(error)
        assert [getattr(copied, name, None) for name in ATTRIBUTES] == attributes
