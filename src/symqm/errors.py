"""Exception types shared across the package, and the value checks that raise them."""

import math
from numbers import Real


class SymqmError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(SymqmError, ValueError):
    """Operands live in spaces of different dimensions."""


class NonSquareError(SymqmError, ValueError):
    """A matrix that must be square is not."""


class NonHermitianError(SymqmError, ValueError):
    """A matrix failed the Hermiticity check.

    Attributes
    ----------
    deviation : float
        Max-norm of ``M - M†`` measured at construction.
    """

    def __init__(self, deviation, message=None):
        self.deviation = float(deviation)
        super().__init__(message or f"matrix is not Hermitian (deviation {deviation:.3e})")


class EigensolverError(SymqmError, RuntimeError):
    """The eigensolver did not converge."""


class NonConvergenceError(SymqmError, RuntimeError):
    """An implicit integrator step failed to converge.

    Attributes
    ----------
    step : int
        Index of the failing step.
    iterations : int
        Iterations spent before giving up.
    """

    def __init__(self, step, iterations):
        self.step = int(step)
        self.iterations = int(iterations)
        super().__init__(f"fixed-point solve failed at step {step} after {iterations} iterations")


class MethodUnsupportedError(SymqmError, ValueError):
    """The requested integration method does not apply to this observable."""


class NormalizationError(SymqmError, ValueError):
    """A state or map output that must be unit norm is not."""


class PreconditionFailedError(SymqmError, ValueError):
    """A hypothesis required by a construction does not hold.

    Attributes
    ----------
    hypothesis : str
        Which hypothesis failed, e.g. ``"normalization"``.
    residual : float
        Measured residual of the failing hypothesis.
    """

    def __init__(self, hypothesis, residual):
        self.hypothesis = str(hypothesis)
        self.residual = float(residual)
        super().__init__(f"precondition failed: {hypothesis} (residual {residual:.3e})")


class OperatorSyntaxError(SymqmError, ValueError):
    """An operator expression could not be parsed.

    Attributes
    ----------
    position : int
        0-based character offset of the error in the input text.
    """

    def __init__(self, message, position):
        self.position = int(position)
        super().__init__(f"{message} (at position {position})")


class ScenarioError(SymqmError, ValueError):
    """A scenario value is malformed or fails cross-validation.

    Raised for a field of a scenario file, for the CLI option that
    overrides it, and by the checks below for any argument of their kind.

    Attributes
    ----------
    field : str or None
        Name of the offending field, when one can be identified.
    """

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


def _count(value, name: str, least: int = 1) -> int:
    """``value`` as an int of at least ``least``; a boolean, a fraction or a non-finite value
    is rejected, an integral float such as ``100.0`` is accepted."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = least - 1
    if isinstance(value, bool) or count < least or count != value:
        raise ScenarioError(f"must be an integer of at least {least}", name)
    return count


def _positive(value, name: str) -> float:
    """``value`` as a float, positive and finite; a boolean or a string is rejected."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise ScenarioError("must be a positive finite real", name)
    return float(value)


def _object(value, name: str, known) -> dict:
    """``value``, a dict whose keys are all in ``known``."""
    if not isinstance(value, dict):
        raise ScenarioError("must be an object", name)
    for key in value:
        if key not in known:
            raise ScenarioError(f"unknown key {key!r}; known: {sorted(known)}", name)
    return value
