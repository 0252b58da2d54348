"""Exception types shared across the package, and the integer check that raises one."""
from __future__ import annotations

import numpy as np


class InvalidParameterError(ValueError):
    """A physical or numerical parameter is outside its allowed range."""


class DomainError(ValueError):
    """A coordinate or energy argument lies outside the domain of validity."""


class ResolutionError(RuntimeError):
    """The requested quantity is not resolved at the current grid resolution."""


class RegimeError(RuntimeError):
    """The requested quantity has no solution in this semiclassical regime."""


class InsufficientBasisError(RuntimeError):
    """An eigenbasis expansion failed to capture the state to tolerance."""


class StepSizeError(RuntimeError):
    """Time integration became inaccurate at the chosen step size."""


def require_integer(name: str, value, least: int | None = None, arrays: bool = False) -> None:
    """Raise InvalidParameterError unless `value` is an integer, at least `least` if given.

    Python and numpy integers pass, bools of either kind do not.  With
    `arrays`, a numpy array of an integer dtype passes too, empty or
    not, and `least` bounds each of its elements.
    """
    many = arrays and isinstance(value, np.ndarray)
    if not (np.issubdtype(value.dtype, np.integer) if many
            else isinstance(value, (int, np.integer)) and not isinstance(value, bool)):
        kind = "an integer or an integer array" if arrays else "an integer"
        raise InvalidParameterError(f"{name} must be {kind}, got {value!r}")
    if least is not None and (value.min(initial=least) if many else value) < least:
        raise InvalidParameterError(f"{name} must be >= {least}")
