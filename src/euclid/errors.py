"""Shared exception types."""


class EuclidError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(EuclidError):
    """Division by an exact zero."""


class NegativeRadicand(EuclidError):
    """Square root of an exactly negative quantity."""


class FieldContextError(EuclidError):
    """Irrational values from different arithmetic contexts were mixed."""


class DegenerateInput(EuclidError):
    """Coincident points or another degenerate configuration."""


class CoincidentCircles(DegenerateInput):
    """The two circles are equal as point sets."""


class SuperpositionMismatch(EuclidError):
    """Attempt to superpose segments of unequal length."""


class PreconditionViolated(EuclidError):
    """A stated precondition fails on the given instance."""


class TriangleInequalityViolated(PreconditionViolated):
    """The three given lengths admit no triangle."""


class StrategyInapplicable(EuclidError):
    """The chosen variant strategy does not cover this instance."""


class HypothesisNotSatisfied(EuclidError):
    """A theorem validator was fed a non-conforming figure bundle."""


class NotSimple(EuclidError):
    """A rectilineal figure is self-intersecting."""


class NoSuchIntersection(EuclidError):
    """An intersection selector matched nothing."""


class NothingToRender(EuclidError):
    """render() was called with no objects."""


class UnknownProposition(EuclidError):
    """No proposition is registered under the given identifier."""
