"""Exception types shared across the package, and :func:`or_none` to catch them."""

from __future__ import annotations


class GjsError(Exception):
    """Base class for every error this package raises on purpose."""


def or_none(errors, func, *args):
    """``func(*args)``, or None when it raises one of ``errors``."""
    try:
        return func(*args)
    except errors:
        return None


class OverflowDiverged(GjsError):
    """An iterate exceeded the divergence bound.

    This signals divergence of the orbit (the unbounded region of a
    characteristic function), not an internal fault.  The partial orbit,
    offending value included, is attached as ``iterates``.
    """

    def __init__(self, message: str, iterates=None):
        super().__init__(message)
        self.iterates = list(iterates) if iterates is not None else []


class NoRealFixedPoint(GjsError):
    """The fixed-point equation f(x) = x has no real solution."""


class NotQuadratic(GjsError):
    """Operation defined only for quadratic characteristic functions."""


class UnsupportedDiscriminant(GjsError):
    """Region classification requires a vanishing fixed-point discriminant."""


class InvalidVacuum(GjsError):
    """Vacuum eigenvalue lies outside the invertibility region."""


class InvalidHighestWeight(GjsError):
    """Highest weight lies outside the invertibility region."""


class NegativeNormSquared(GjsError):
    """A ladder norm squared is negative: the truncation is not unitarizable."""

    def __init__(self, index: int, value: float):
        super().__init__(f"norm squared at rung {index} is {value!r} < 0")
        self.index = index
        self.value = value


class FixedPointVacuum(GjsError):
    """Gauss numbers are undefined when the start value is a fixed point."""


class NegativeLadderSquare(GjsError):
    """A weight-ladder square is negative: the representation is not unitary."""

    def __init__(self, index: int, value: float):
        super().__init__(f"ladder square at step {index} is {value!r} < 0")
        self.index = index
        self.value = value


class DescentViolation(GjsError):
    """The descent hypothesis alpha_j > g^(m)(alpha_j) fails."""

    def __init__(self, index: int, value: float):
        super().__init__(
            f"iterate {index} equals {value!r}, not below the highest weight"
        )
        self.index = index
        self.value = value


class CutResidualTooLarge(GjsError):
    """alpha_j + g^(d)(alpha_j) + 1 is too far from zero for a cut rep."""


class PeriodicResidualTooLarge(GjsError):
    """g^(d)(alpha_j) - alpha_j is too far from zero for a periodic rep."""


class NegativeRadicand(GjsError):
    """The raising-functional radicand is negative at a basis state."""

    def __init__(self, state, value: float):
        super().__init__(f"radicand at state {state} is {value!r} < 0")
        self.state = state
        self.value = value


class PairingMismatch(GjsError):
    """The two characteristic functions are not reflection partners."""


class DimensionMismatch(GjsError):
    """Representations being compared act on different-sized bases."""


class OutOfBasis(GjsError):
    """Requested occupation pair is not a state of the tensor basis."""
