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

    # Every raiser passes ``iterates``; the default serves copy and pickle,
    # which call the class with the message alone and then restore the orbit.
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


class _LocatedError(GjsError):
    """An offending ``value`` at position ``index``, told by the class's ``template``.

    The two arguments are the exception's ``args``, so copy and pickle rebuild it.
    """

    template: str

    def __init__(self, index: int, value: float):
        super().__init__(index, value)
        self.index, self.value = index, value

    def __str__(self) -> str:
        return self.template.format(self.index, self.value)


class NegativeNormSquared(_LocatedError):
    """A ladder norm squared is negative: the truncation is not unitarizable."""

    template = "norm squared at rung {} is {!r} < 0"


class FixedPointVacuum(GjsError):
    """Gauss numbers are undefined when the start value is a fixed point."""


class NegativeLadderSquare(_LocatedError):
    """A weight-ladder square is negative: the representation is not unitary."""

    template = "ladder square at step {} is {!r} < 0"


class DescentViolation(_LocatedError):
    """The descent hypothesis alpha_j > g^(m)(alpha_j) fails."""

    template = "iterate {} equals {!r}, not below the highest weight"


class CutResidualTooLarge(GjsError):
    """alpha_j + g^(d)(alpha_j) + 1 is too far from zero for a cut rep."""


class PeriodicResidualTooLarge(GjsError):
    """g^(d)(alpha_j) - alpha_j is too far from zero for a periodic rep."""


class DimensionMismatch(GjsError):
    """Representations being compared act on different-sized bases."""


class OutOfBasis(GjsError):
    """Requested occupation pair is not a state of the tensor basis."""
