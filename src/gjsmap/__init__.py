"""Matrix representations of generalized oscillator and weight algebras.

A polynomial characteristic function determines a whole ladder algebra: an
oscillator-like function ``f`` closes a generalized Heisenberg algebra whose
level eigenvalues are the iterates of a vacuum value, and a weight-like
function ``g`` closes a generalized sl(2)-type algebra whose weights descend
along the iterates of a highest weight.  This package builds truncated matrix
representations of both, each operator stored as its one nonzero diagonal,
solves the closure conditions that make the weight side finite dimensional,
and realizes the weight algebra on two independent copies of the oscillator
through diagonal dressing functionals (a generalized two-boson construction
that reduces to the classic one for ``f = x + 1``, ``g = x - 1``).

Everything is float64.  Residual reports check the relations among the
computed diagonals at machine precision; they do not bound the rounding of
the orbit those diagonals come from.  See the ``demos/`` scripts and the CLI
(``gjsmap --help``) for tours.

``import gjsmap`` loads none of the package's modules.  An exported name
imports the module that defines it on its first read, as ``gjsmap._np`` does
for numpy, and the CLI loads only the modules its command calls, so
``gjsmap --help`` and argument errors load none.
"""

#: Each exported name, by the module that defines it; the modules are exported too.
_EXPORTS = {
    "charfun": (
        "DIVERGENCE_BOUND", "CharFn", "FixedPointInfo", "OneSidedBehavior", "Orientation",
        "RegionLabel", "Stability", "charfn_from_dict", "charfn_to_dict", "classify_region",
        "derivative_at", "discriminant", "evaluate", "fixed_points", "invertibility_boundary",
        "invertibility_region", "iterate", "reflection_pair",
    ),
    "encoding": (),
    "errors": (
        "CutResidualTooLarge", "DescentViolation", "DimensionMismatch", "FixedPointVacuum",
        "GjsError", "InvalidHighestWeight", "InvalidVacuum", "NegativeLadderSquare",
        "NegativeNormSquared", "NegativeRadicand", "NoRealFixedPoint", "NotQuadratic",
        "OutOfBasis", "OverflowDiverged", "PeriodicResidualTooLarge", "UnsupportedDiscriminant",
    ),
    "gha": (
        "GhaRep", "OperatorMatrix", "ResidualReport", "build_gha", "casimir_gha",
        "gauss_factorial", "gauss_numbers", "gha_to_dict", "matrix_A", "matrix_Adag",
        "matrix_H", "matrix_N", "verify_gha_relations", "write_matrix_csv",
    ),
    "gsl2": (
        "CutSolutions", "Gsl2Rep", "RepKind", "build_gsl2", "casimir_gsl2",
        "cut_condition_solve", "gsl2_to_dict", "matrix_J0", "matrix_Jminus", "matrix_Jplus",
        "periodic_condition_solve", "verify_gsl2_relations",
    ),
    "jsmap": (
        "FixedJ", "FullGrid", "JsMapRep", "PairingReport", "TwoOscillatorSpace", "build_jsmap",
        "build_state_vector", "derive_pairing", "functional_F", "functional_G",
        "jsmap_to_dict", "two_oscillator_space", "verify_jsmap_relations",
        "verify_map_equals_gsl2", "verify_pairing_identity",
    ),
    "orbit": (
        "FigureBundle", "FigureName", "GuideLine", "OrbitReport", "cobweb", "figure_bundle",
        "report_to_dict", "write_bundle", "write_report_csvs", "write_report_json",
    ),
    "roots": ("find_roots",),
}

_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_DEFINED_IN)


def __getattr__(name: str):
    """Import the module that defines ``name`` on its first read, and keep the value."""
    from importlib import import_module

    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_DEFINED_IN[name]}", __name__)
    value = module if name in _EXPORTS else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
