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


def require_integer(name: str, value, least: int | None = None) -> None:
    """Raise InvalidParameterError unless `value` is an integer, at least `least` if given.

    Python and numpy integers pass; bools of either kind and numpy
    arrays do not.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidParameterError(f"{name} must be >= {least}")
