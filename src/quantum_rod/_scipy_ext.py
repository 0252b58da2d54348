"""The scipy routines the package calls, without the scipy packages around them.

Importing a scipy subpackage runs its `__init__.py`, which loads far
more than the package calls:

* `import scipy.linalg.lapack` loads most of scipy.linalg and, through
  it, numpy.f2py and numpy.testing: about 150 ms of every cold start,
  for five LAPACK routines;
* `import scipy.optimize` loads linprog, shgo and scipy.linalg with it:
  about 105 ms more, for one root finder, `brentq`;
* `import scipy.special` loads scipy's array-API layer
  (`_support_alternative_backends`, `scipy._lib._array_api` and
  `array_api_compat`): about 90 ms more, for five ufuncs and `ai_zeros`.

Each lives in extensions that import nothing from their package's
`__init__`: `scipy/linalg/_flapack.*.so`, `scipy/optimize/_zeros.*.so`
and `scipy/special/_ufuncs.*.so` with `_specfun.*.so`.  `load` loads
such an extension on its own and registers it in `sys.modules` under its
own name, so that a later import of the package reuses it: the LAPACK
routines are then `scipy.linalg.lapack`'s by identity, `brentq` here
runs the C core that `scipy.optimize.brentq` runs, and the ufuncs are
`scipy.special`'s by identity.  (That later import leaves the package
without the extension as an attribute; scipy itself reaches it only by
import.)  `_ufuncs` imports sibling extensions (`_ufuncs_cxx` and others
under scipy 1.17) relative to its package, so for scipy.special `load`
registers a bare stand-in module with the package's `__path__` while the
two extensions are imported, and removes it again whatever happens.

So no subcommand loads any of the three packages.  The scipy.special
functions (`SPECIAL_FUNCTIONS`) are loaded on first use, by the module
`__getattr__`, so `spectrum`, `evolve` and `slant`, which import this
module for LAPACK, do not load them.

This relies on scipy's private file layout.  If a file is missing or
fails to load, or the `_zeros` core or `_specfun.airyzo` fails one probe
call (one with another argument list raises TypeError or RuntimeError),
or the package was imported first, the routines come from
`scipy.linalg.lapack`, `scipy.optimize.brentq` and `scipy.special`
instead, so another layout costs only the import time and behaves the
same.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from typing import Callable

import numpy as np

FLAPACK = "scipy.linalg._flapack"
ZEROS = "scipy.optimize._zeros"
SPECIAL = "scipy.special"
ROUTINES = ("dgtsv", "dstebz", "dstein", "zgttrf", "zgttrs")
UFUNCS = ("ellipeinc", "elliprd", "elliprf", "loggamma", "airy")
SPECIAL_FUNCTIONS = (*UFUNCS, "ai_zeros")

# scipy.optimize.brentq's defaults
XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def find_spec(name: str) -> importlib.machinery.ModuleSpec | None:
    """Spec of scipy's module `name`, such as FLAPACK or SPECIAL, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or scipy.submodule_search_locations is None:
        return None
    within = name.split(".")[1:-1]
    return importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(base, *within) for base in scipy.submodule_search_locations])


def load(spec: importlib.machinery.ModuleSpec | None, take: Callable, fallback: Callable):
    """`take(module)` of the module `spec` locates, else `fallback()`.

    An extension is loaded and stays registered.  A package is not run:
    its module is a bare stand-in with the package's `__path__`, through
    which `take` imports the package's extensions, and it is registered
    only while `take` runs.  The fallback runs when there is no spec,
    when the module is already registered (its package was imported
    first) and when loading it or `take` fails; then no half-loaded
    module and no stand-in is left in `sys.modules`.
    """
    if spec is not None and spec.name not in sys.modules:
        forget = spec.submodule_search_locations is not None  # a stand-in
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            if not forget:
                spec.loader.exec_module(module)
            return take(module)
        except (ImportError, AttributeError, TypeError, RuntimeError):
            forget = True
        finally:
            if forget:
                _forget(spec.name)
    return fallback()


def _forget(name: str) -> None:
    """Remove module `name` from `sys.modules` and from its parent package.

    `vars`, not `hasattr`: scipy's module `__getattr__` would import the
    real package to answer `hasattr(scipy, "special")`.
    """
    module = sys.modules.pop(name, None)
    parent, _, child = name.rpartition(".")
    namespace = vars(sys.modules[parent]) if parent in sys.modules else {}
    if module is not None and namespace.get(child) is module:
        del namespace[child]


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


def special_functions(package) -> tuple:
    """`SPECIAL_FUNCTIONS` from the `_ufuncs` and `_specfun` extensions of `package`."""
    ufuncs = importlib.import_module("._ufuncs", package.__name__)
    ai_zeros = specfun_ai_zeros(importlib.import_module("._specfun", package.__name__))
    return (*(getattr(ufuncs, name) for name in UFUNCS), ai_zeros)


def specfun_ai_zeros(module) -> Callable:
    """`ai_zeros` on `airyzo` of `_specfun`, probed with one zero."""
    airyzo = module.airyzo

    def ai_zeros(nt: int) -> tuple:
        """scipy.special.ai_zeros(nt): the first nt zeros of Ai and Ai', Ai(a') and Ai'(a).

        It keeps the one check of scipy's public function.
        """
        if not np.isscalar(nt) or (np.floor(nt) != nt) or (nt <= 0):
            raise ValueError("nt must be a positive integer scalar.")
        return airyzo(nt, 1)

    ai_zeros(1)  # the probe: another airyzo raises here
    return ai_zeros


def scipy_special_functions() -> tuple:
    """`SPECIAL_FUNCTIONS` by the public route, which imports the scipy.special package."""
    import scipy.special
    return tuple(getattr(scipy.special, name) for name in SPECIAL_FUNCTIONS)


def __getattr__(name: str):
    """The scipy.special function `name`, all of which load on the first such call.

    Python calls this only for a name the module does not hold yet, so
    it runs once: the loaded functions become module attributes.
    """
    if name not in SPECIAL_FUNCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(zip(SPECIAL_FUNCTIONS, load(find_spec(SPECIAL), special_functions,
                                                 scipy_special_functions)))
    return globals()[name]


dgtsv, dstebz, dstein, zgttrf, zgttrs = load(find_spec(FLAPACK), lapack_routines,
                                             scipy_lapack_routines)
brentq = load(find_spec(ZEROS), zeros_brentq, scipy_optimize_brentq)
