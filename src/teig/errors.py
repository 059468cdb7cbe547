"""Exception types shared across the package.

ValidationError subclasses carry a stable ``code`` (the class name) that the
CLI serializes into its machine-readable error output.
"""


class TeigError(Exception):
    """Base class for all package errors."""

    @property
    def code(self):
        return type(self).__name__


class ValidationError(TeigError, ValueError):
    """A problem description violates its declared constraints."""


class NonPositivePotential(ValidationError):
    pass


class AlphaTooSmall(ValidationError):
    pass


class OverlappingIntervals(ValidationError):
    pass


class HelmholtzContrastDegenerate(ValidationError):
    pass


class ProblemTooLarge(ValidationError):
    pass


class ArgumentOutOfRange(TeigError, ValueError):
    pass


class OrderOutOfRange(TeigError, ValueError):
    pass


class UnsupportedDimension(TeigError, ValueError):
    pass


class NotPositiveDefinite(TeigError, ArithmeticError):
    pass


class NoConvergence(TeigError, ArithmeticError):
    pass


class InertiaMismatch(TeigError, ArithmeticError):
    pass


class InsufficientCounts(TeigError, ValueError):
    pass
