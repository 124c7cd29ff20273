"""Exception hierarchy and argument rules shared by all nlbox modules."""

import math
from numbers import Integral, Real


class NlboxError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NlboxError, ValueError):
    """A value violates a type invariant (norm, hermiticity, positivity, ...)."""


class ShapeError(ValidationError):
    """Operands have inconsistent or mismatched dimensions."""


class CapacityError(ValidationError):
    """A size would exceed its cap: a tensor product's dimension, a Deutsch box's
    loop tensor (d_s d_c^2) or a linear box's superoperator (d_out d_in), all
    MAX_TENSOR_DIM; a Deutsch loop dimension (MAX_LOOP_DIM); or a BB84 bit count
    (MAX_BB84_BITS)."""


class ConfigurationError(ValidationError):
    """A parameter or configuration is invalid or missing."""


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


def check_integer(value, name: str, least: int = 0) -> int:
    """value as an int; ConfigurationError unless it is an integer >= least (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_instance(value, kind, name: str) -> None:
    """ValidationError, naming the expected type, unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def finite_float(value) -> float:
    """value as a float, or nan unless it is a finite real number (a bool is not)."""
    # A float, numpy's float64 included, skips the slower abstract-class check.
    if not (isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool)):
        return math.nan
    try:
        value = float(value)
    except OverflowError:  # an int or fraction beyond the float range
        return math.nan
    return value if math.isfinite(value) else math.nan


def check_tol(tol) -> float:
    """tol as a float; ConfigurationError unless it is a finite, non-negative real number."""
    if not finite_float(tol) >= 0:
        raise ConfigurationError(f"tol must be a finite non-negative number, got {tol!r}")
    return float(tol)
