"""Exception hierarchy for fourcurv.

Validation failures carry the offending defect magnitude where one exists,
so callers (and the CLI) can report how far an input is from admissible.
"""

import sys


def _digit_limit(what: str) -> str:
    # the interpreter refuses longer int <-> str conversions, which take quadratic time
    return (f"{what} more than {sys.get_int_max_str_digits()} digits, the limit of "
            "sys.get_int_max_str_digits()")


def _past_digit_limit(exc: ValueError) -> bool:
    """Whether ``int(text)`` raised ``exc`` for the interpreter's digit limit, not
    for a text that is no integer (whose message quotes the text)."""
    return str(exc).startswith("Exceeds the limit")


class FourcurvError(Exception):
    """Base class for all fourcurv errors."""


class NotAdmissibleError(FourcurvError):
    """Operator fails admissibility (symmetry or first-Bianchi trace test)."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


class NotSymmetricError(NotAdmissibleError):
    pass


class BianchiViolationError(NotAdmissibleError):
    pass


class InvalidBlocksError(FourcurvError):
    """A Weyl half of a decomposition is not traceless."""


class NotEinsteinError(FourcurvError):
    """Operation requires a traceless-Ricci block that vanishes to tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class IndefiniteSignError(FourcurvError):
    """Equality classification is undefined for indefinite sectional curvature."""


class NotKahlerError(FourcurvError):
    """Input is not Kahler: its self-dual rows [A | B] have rank above one."""


class DegeneratePlaneError(FourcurvError):
    """Vectors do not span a 2-plane."""


class NotUnitError(FourcurvError):
    """Input vector is not unit length."""


class UnknownModelError(FourcurvError):
    pass


class BadParameterError(FourcurvError):
    pass


class UnknownChartError(FourcurvError):
    pass


class OutsideDomainError(FourcurvError):
    pass


class SingularMetricError(FourcurvError):
    """Metric evaluation is not symmetric positive-definite."""


class StepTooLargeError(FourcurvError):
    """Finite-difference step unusable: the stencil would leave the chart
    domain, or the step is not positive or too small to divide by."""


class BadIntervalError(FourcurvError):
    pass
