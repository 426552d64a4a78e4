"""Exception types shared across the package."""


class DiscFlowError(Exception):
    """Base class for all package errors."""


class DomainError(DiscFlowError, ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class InvalidCurve(DiscFlowError, ValueError):
    """A polyline violates the structural curve invariants (coincident
    nodes, self-intersection, endpoint constraints, ...)."""


class ResidualError(DiscFlowError, ArithmeticError):
    """A computed root failed the re-check of its own equation."""


class ComparisonViolation(DiscFlowError):
    """A comparison-principle check failed beyond its tolerance."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class InsufficientWindow(DiscFlowError):
    """Not enough recorded states or blow-up members for the analysis."""


class NotExtinct(DiscFlowError):
    """Blow-up extraction requires a trajectory that ended by extinction."""


class ParameterError(DiscFlowError, ValueError):
    """Invalid CLI/manifest parameter (maps to exit code 2)."""
