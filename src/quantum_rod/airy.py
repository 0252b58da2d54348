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
`mpmath.airyaizero` (sampled from n = 11 to 100000).

The module keeps one table of polished zeros.  It grows geometrically,
to at least twice its length and at least to the n asked for, when an n
beyond it is asked for, so each zero is computed once per process and a
lookup inside the table costs no `ai_zeros` call.  The tables of
`ai_zeros(N)` share their prefixes bit for bit, so every zero is the one
a call of `ai_zeros(n + 1)` would give.  Nothing numerical bounds n:
`airy_zero` takes n < MAX_N only to bound the table.  The table starts
small because the full one is dear: `ai_zeros(MAX_N)` and the polish of
its zeros take about 40 ms, the first MIN_TABLE zeros about 0.2 ms, and
a process that runs a few levels asks only for those.
"""
from __future__ import annotations

import math

import numpy as np

from ._scipy_ext import ai_zeros, airy
from .errors import DomainError, require_integer
from .spectrum import PotentialSpec

MAX_N = 10_000
MIN_TABLE = 16  # length of the first table

_zeros = np.empty(0)  # the polished lambda_n, n < len(_zeros); read-only


def _zero_table(count: int) -> np.ndarray:
    """The table of polished lambda_n, grown to hold at least `count` zeros."""
    global _zeros
    if count > len(_zeros):
        size = min(MAX_N, max(count, 2 * len(_zeros), MIN_TABLE))
        zeros, _, _, slopes = ai_zeros(size)
        table = -(zeros - airy(zeros)[0] / slopes)
        table.setflags(write=False)
        _zeros = table
    return _zeros


def airy_zero(n: int | np.ndarray) -> float | np.ndarray:
    """Magnitude lambda_n of the (n+1)-th negative zero of Ai, n = 0, 1, ...

    A numpy integer array n gives the array of its lambda_n, empty for an
    empty n.  An n of any other type, bool included, is refused.
    """
    require_integer("n", n, least=0, arrays=True)
    many = isinstance(n, np.ndarray)
    if many and n.size == 0:
        return np.empty(0)
    top = n.max() if many else n
    if top >= MAX_N:
        raise DomainError(f"Airy zeros are tabulated for n < {MAX_N}, got n={top}")
    lam = _zero_table(int(top) + 1)[n]
    return lam if many else float(lam)


def wkb_lambda(n: int | np.ndarray) -> float | np.ndarray:
    """Semiclassical stand-in for the Airy zero: [3*pi/2*(n+3/4)]^(2/3).

    Integer arrays and refusals as in `airy_zero`.  An array is answered
    element by element in Python floats, since numpy's power need not
    round like Python's, so each value is bit for bit the scalar one.
    """
    require_integer("n", n, least=0, arrays=True)
    if isinstance(n, np.ndarray):
        return np.array([wkb_lambda(k) for k in n.ravel().tolist()], dtype=float).reshape(n.shape)
    return (1.5 * math.pi * (n + 0.75)) ** (2.0 / 3.0)


def linear_well_energy(n: int | np.ndarray, B: float,
                       exact: bool = True) -> float | np.ndarray:
    """Deep level B^(2/3)*lambda_n using the exact Airy zero (or WKB).

    n may be an integer array, as in `airy_zero`.
    """
    PotentialSpec(B)  # validates B before a zero is looked up
    lam = airy_zero(n) if exact else wkb_lambda(n)
    return B ** (2.0 / 3.0) * lam
