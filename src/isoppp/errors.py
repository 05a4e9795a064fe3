"""Exception hierarchy shared by all isoppp modules."""

import math


class IsopppError(Exception):
    """Base class for every error raised by this package."""


class DomainError(IsopppError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidScenarioParams(DomainError):
    """Scenario parameters are not positive and finite, or are inconsistent
    (ordering, ranges, level sums)."""


class UnsupportedAlpha(DomainError):
    """Closed forms exist only for path-loss exponents 2 and 4."""


class RequiresZeroC(DomainError):
    """Operation is defined only for the unbounded path-loss model (c = 0)."""


class OutsideRegion(DomainError):
    """Receiver offset is not interior to the required radial region."""


class NumericOverflow(DomainError, OverflowError):
    """Finite arguments whose path-loss product overflows a double."""


class DegenerateDenominator(IsopppError, ZeroDivisionError):
    """A relative metric was requested where its denominator vanishes."""


class DivergentIntegral(IsopppError, ArithmeticError):
    """The requested quantity is infinite for this density/path-loss pair."""


class NonConvergence(IsopppError, ArithmeticError):
    """Adaptive quadrature hit its evaluation budget before the tolerance.

    Carries the best available estimate in ``result`` when the failing
    operation produced one.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class NoFiniteTruncation(IsopppError):
    """No finite sampling radius can bound the neglected interference."""


def _check_finite(**values: float) -> None:
    """Raise DomainError naming the first NaN or infinite value; range checks
    alone let NaN through, because every comparison with NaN is false."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _check_positive(**values: float) -> None:
    """Raise DomainError naming the first value that is not finite, else the
    first that is not positive."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            _check_finite(**values)
            raise DomainError(f"{name} must be positive, got {value}")


def _check_nonnegative(**values: float) -> None:
    """Raise DomainError naming the first value that is not finite, else the
    first that is negative."""
    for name, value in values.items():
        if not 0.0 <= value < math.inf:
            _check_finite(**values)
            raise DomainError(f"{name} must be nonnegative, got {value}")
