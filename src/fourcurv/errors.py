"""Exception hierarchy for fourcurv.

Validation failures carry the offending defect magnitude where one exists,
so callers (and the CLI) can report how far an input is from admissible.
"""


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
    """Decomposition blocks violate their trace/symmetry constraints."""


class NotEinsteinError(FourcurvError):
    """Operation requires a traceless-Ricci block that vanishes to tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class DensityOverflowError(FourcurvError):
    """A characteristic density lies outside the float range."""


class IndefiniteSignError(FourcurvError):
    """Equality classification is undefined for indefinite sectional curvature."""


class NotKahlerError(FourcurvError):
    """Input violates the Kahler identity |W+|^2 = s^2/24."""


class ToleranceTooTightError(FourcurvError):
    """Two equivalent criteria disagree because the tolerance is below the
    roundoff of the input."""


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
    """Finite-difference stencil would leave the chart domain."""


class BadIntervalError(FourcurvError):
    pass


class NonConvergentError(FourcurvError):
    """Quadrature failed its node-doubling stability check."""
