"""Exception hierarchy shared by all nlbox modules."""


class NlboxError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NlboxError, ValueError):
    """A value violates a type invariant (norm, hermiticity, positivity, ...)."""


class ShapeError(ValidationError):
    """Operands have inconsistent or mismatched dimensions."""


class CapacityError(ValidationError):
    """A tensor product would exceed the configured dimension cap."""


class ConfigurationError(ValidationError):
    """A policy or box configuration is missing required parameters."""


class DecompositionError(ValidationError):
    """An ensemble decomposition does not average to its stated density."""


class DomainError(NlboxError):
    """A strict box map was applied outside the states it is defined on."""


class ConvergenceError(NlboxError):
    """The Deutsch loop state misses its consistency condition; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RankError(NlboxError):
    """Input set is tomographically incomplete for a channel fit."""


class MisuseError(NlboxError):
    """An operation was called with its documented preconditions violated."""


class ScenarioParseError(NlboxError):
    """Scenario or stats file is not well-formed."""
