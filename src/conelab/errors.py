"""Exception types shared across the package."""


class ConelabError(Exception):
    """Base class for all package errors."""


class DomainError(ConelabError):
    """Arguments outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class NonConvergenceError(ConelabError):
    """An iterative evaluation hit its budget with the error estimate
    still above tolerance."""

    def __init__(self, message, value=None, err_estimate=None, terms_used=None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
        self.terms_used = terms_used


class BracketFailure(ConelabError):
    """No sign change found while bracketing a root that must exist."""


class PoleEncounteredError(ConelabError):
    """A log-derivative was requested past a zero of the denominator."""


class VariantUnavailableError(ConelabError):
    """No barrier construction applies to the requested parameters."""


class IntegrationFailure(ConelabError):
    """An ODE integration collapsed its step size before reaching the target."""


class RangeUnsupported(ConelabError):
    """Parameters are outside the hypotheses of the bound being checked."""
