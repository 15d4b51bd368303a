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

Everything is float64 and verified at machine precision by residual reports;
see the ``demos/`` scripts and the CLI (``gjsmap --help``) for tours.

No module of the package imports numpy at module level: each function that
uses arrays runs ``import numpy as np`` itself.  So ``import gjsmap``, the
CLI's parser, ``--help`` and argument errors load no numpy, and a command
pays numpy's import on its first array operation.
"""

from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    FixedPointInfo,
    OneSidedBehavior,
    Orientation,
    RegionLabel,
    Stability,
    charfn_from_dict,
    charfn_to_dict,
    classify_region,
    derivative_at,
    discriminant,
    evaluate,
    find_roots,
    fixed_points,
    invertibility_boundary,
    invertibility_region,
    iterate,
    reflection_pair,
)
from .errors import (
    CutResidualTooLarge,
    DescentViolation,
    DimensionMismatch,
    FixedPointVacuum,
    GjsError,
    InvalidHighestWeight,
    InvalidVacuum,
    NegativeLadderSquare,
    NegativeNormSquared,
    NegativeRadicand,
    NoRealFixedPoint,
    NotQuadratic,
    OutOfBasis,
    OverflowDiverged,
    PeriodicResidualTooLarge,
    UnsupportedDiscriminant,
)
from .gha import (
    GhaRep,
    OperatorMatrix,
    ResidualReport,
    build_gha,
    casimir_gha,
    gauss_factorial,
    gauss_numbers,
    gha_to_dict,
    matrix_A,
    matrix_Adag,
    matrix_H,
    matrix_N,
    verify_gha_relations,
    write_matrix_csv,
)
from .gsl2 import (
    CutSolutions,
    Gsl2Rep,
    RepKind,
    build_gsl2,
    casimir_gsl2,
    cut_condition_solve,
    gsl2_to_dict,
    matrix_J0,
    matrix_Jminus,
    matrix_Jplus,
    periodic_condition_solve,
    verify_gsl2_relations,
)
from .jsmap import (
    FixedJ,
    FullGrid,
    JsMapRep,
    PairingReport,
    TwoOscillatorSpace,
    build_jsmap,
    build_state_vector,
    derive_pairing,
    functional_F,
    functional_G,
    jsmap_to_dict,
    two_oscillator_space,
    verify_jsmap_relations,
    verify_map_equals_gsl2,
    verify_pairing_identity,
)
from .orbit import (
    FigureBundle,
    FigureName,
    GuideLine,
    OrbitReport,
    cobweb,
    figure_bundle,
    report_to_dict,
    write_bundle,
    write_report_csvs,
    write_report_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
