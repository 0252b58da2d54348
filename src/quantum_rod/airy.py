"""Levels of the linearized wall-side well via the Airy function.

Deep below the barrier the rod oscillates against the wall where the
potential is effectively linear, so the exact deep levels are

    E_n = B^(2/3) * lambda_n,     Ai(-lambda_n) = 0,

while the corresponding WKB condition gives the slightly smaller
lambda_n(WKB) = [3*pi/2*(n + 3/4)]^(2/3).

The zeros lambda_n come from scipy.special's `ai_zeros`, polished by one
Newton step with its `airy` (both loaded by `_scipy_ext` without the
scipy.special package): the fifth zero from `ai_zeros` alone is off by
about 1e-12 relative, the polished ones by < 1e-16 against
`mpmath.airyaizero` (sampled from n = 11 to 100000).  Nothing
numerical bounds n: `airy_zero` takes n < MAX_N only because
`ai_zeros(n + 1)` fills four arrays of n + 1 values on every call, so
that one call stays under 2 ms.  An array of n is answered from one
such call, bit for bit as n by n, so `airy --count 10000` takes well
under a second (about 20 s with one call per row).
"""
from __future__ import annotations

import math

import numpy as np

from ._scipy_ext import ai_zeros, airy
from .errors import DomainError, InvalidParameterError
from .spectrum import PotentialSpec

MAX_N = 10_000


def airy_zero(n: int | np.ndarray) -> float | np.ndarray:
    """Magnitude lambda_n of the (n+1)-th negative zero of Ai, n = 0, 1, ...

    A numpy integer array n gives the array of its lambda_n.
    """
    many = isinstance(n, np.ndarray)
    low, top = (n.min(), n.max()) if many else (n, n)
    if low < 0:
        raise InvalidParameterError("n must be >= 0")
    if top >= MAX_N:
        raise DomainError(f"Airy zeros are tabulated for n < {MAX_N}, got n={top}")
    zeros, _, _, slopes = ai_zeros(int(top) + 1)
    lam = -(zeros[n] - airy(zeros[n])[0] / slopes[n])
    return lam if many else float(lam)


def wkb_lambda(n: int) -> float:
    """Semiclassical stand-in for the Airy zero: [3*pi/2*(n+3/4)]^(2/3)."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    return (1.5 * math.pi * (n + 0.75)) ** (2.0 / 3.0)


def linear_well_energy(n: int | np.ndarray, B: float,
                       exact: bool = True) -> float | np.ndarray:
    """Deep level B^(2/3)*lambda_n using the exact Airy zero (or WKB).

    With `exact`, n may be an integer array, as in `airy_zero`.
    """
    PotentialSpec(B)  # validates B before a zero is looked up
    lam = airy_zero(n) if exact else wkb_lambda(n)
    return B ** (2.0 / 3.0) * lam
