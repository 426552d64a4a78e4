"""Exception types shared across the package."""


class DiscFlowError(Exception):
    """Base class for all package errors."""


class DomainError(DiscFlowError, ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class InvalidCurve(DiscFlowError, ValueError):
    """A polyline violates the structural curve invariants (coincident
    nodes, self-intersection, endpoint constraints, ...)."""


class BarrierViolation(DiscFlowError):
    """A sub/supersolution inequality failed beyond round-off slack."""

    def __init__(self, message, point=None, slack=None):
        super().__init__(message)
        self.point = point
        self.slack = slack


class StepRejected(DiscFlowError):
    """A flow step produced an invalid curve; retry with a smaller dt."""


class ComparisonViolation(DiscFlowError):
    """A comparison-principle check failed beyond its tolerance."""

    def __init__(self, message, time=None, margin=None):
        super().__init__(message)
        self.time = time
        self.margin = margin


class InsufficientWindow(DiscFlowError):
    """Not enough recorded states to run the requested analysis."""


class NotExtinct(DiscFlowError):
    """Blow-up extraction requires a trajectory that ended by extinction."""


class EmptySequence(DiscFlowError):
    """An empty blow-up sequence was passed to a comparison routine."""


class ParameterError(DiscFlowError, ValueError):
    """Invalid CLI/manifest parameter (maps to exit code 2)."""
