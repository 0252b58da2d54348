"""The scipy routines the package calls, without the scipy packages around them.

Importing a scipy subpackage runs its `__init__.py`, which loads far
more than the package calls:

* `import scipy.linalg.lapack` loads most of scipy.linalg and, through
  it, numpy.f2py and numpy.testing: about 150 ms of every cold start,
  for five LAPACK routines;
* `import scipy.optimize` loads linprog, shgo and scipy.linalg with it:
  about 105 ms more, for one root finder, `brentq`.

Each lives in one extension that imports nothing from its package,
`scipy/linalg/_flapack.*.so` and `scipy/optimize/_zeros.*.so`.  `load`
loads such an extension on its own and registers it in `sys.modules`
under its own name, so that a later import of the package reuses it:
the LAPACK routines are then `scipy.linalg.lapack`'s by identity, and
`brentq` here runs the C core that `scipy.optimize.brentq` runs.  (That
later import leaves the package without the extension as an attribute;
scipy itself reaches it only by import.)  So `spectrum`, `evolve` and
`slant` load neither package, and `summit` and `wkb-compare` load
scipy.special (for their phase integrals) but not scipy.optimize.

This relies on scipy's private file layout.  If a file is missing or
fails to load, or the `_zeros` core fails one probe call (a core with
another argument list raises TypeError or RuntimeError), the routines
come from `scipy.linalg.lapack` and `scipy.optimize.brentq` instead, so
another layout costs only the import time and behaves the same.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from typing import Callable

FLAPACK = "scipy.linalg._flapack"
ZEROS = "scipy.optimize._zeros"
ROUTINES = ("dgtsv", "dstebz", "dstein", "zgttrf", "zgttrs")

# scipy.optimize.brentq's defaults
XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def find_spec(name: str) -> importlib.machinery.ModuleSpec | None:
    """Spec of scipy's extension `name`, such as FLAPACK, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or scipy.submodule_search_locations is None:
        return None
    package = name.split(".")[1]
    return importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(base, package) for base in scipy.submodule_search_locations])


def load(spec: importlib.machinery.ModuleSpec | None, take: Callable, fallback: Callable):
    """`take(module)` of the extension `spec` locates, else `fallback()`.

    The fallback runs when there is no spec, when the extension is
    already registered (its package was imported first) and when
    loading it or `take` fails; then no half-loaded module is left in
    `sys.modules`.
    """
    if spec is not None and spec.name not in sys.modules:
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
            return take(module)
        except (ImportError, AttributeError, TypeError, RuntimeError):
            sys.modules.pop(spec.name, None)
    return fallback()


def lapack_routines(module) -> tuple:
    """`ROUTINES` of `module`: `_flapack` or scipy.linalg.lapack."""
    return tuple(getattr(module, name) for name in ROUTINES)


def scipy_lapack_routines() -> tuple:
    """`ROUTINES` by the public route, which imports the scipy.linalg package."""
    from scipy.linalg import lapack
    return lapack_routines(lapack)


def zeros_brentq(module) -> Callable:
    """`brentq` on the `_brentq` core of `_zeros`, probed with one root of x - 1."""
    core = module._brentq

    def brentq(f: Callable[[float], float], a: float, b: float, maxiter: int = MAXITER) -> float:
        """scipy.optimize.brentq(f, a, b, maxiter=maxiter), at scipy's default XTOL and RTOL.

        It keeps every check of scipy's public wrapper that these
        arguments can reach: ValueError for a NaN value of `f`; and, as
        with disp=True there, the core raises ValueError for a bracket
        whose ends have one sign and RuntimeError when `maxiter` steps do
        not converge.
        """
        maxiter = operator.index(maxiter)

        def f_raise(x: float) -> float:
            fx = f(x)
            if math.isnan(fx):
                raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
            return fx

        return core(f_raise, a, b, XTOL, RTOL, maxiter, (), False, True)

    brentq(lambda x: x - 1.0, 0.0, 2.0)  # the probe: another core raises here
    return brentq


def scipy_optimize_brentq() -> Callable:
    """scipy's public brentq, which imports the scipy.optimize package."""
    from scipy.optimize import brentq
    return brentq


dgtsv, dstebz, dstein, zgttrf, zgttrs = load(find_spec(FLAPACK), lapack_routines,
                                             scipy_lapack_routines)
brentq = load(find_spec(ZEROS), zeros_brentq, scipy_optimize_brentq)
