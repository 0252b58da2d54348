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
and `scipy/special/_ufuncs.*.so` with `_specfun.*.so`.  One rule loads
all three groups (`GROUPS`).  `load` registers a bare stand-in for the
package, a module with the package's `__path__` whose `__init__` never
runs, and `take` imports the group's extensions through it (`_ufuncs`
also imports its sibling extensions, `_ufuncs_cxx` and others under
scipy 1.17); the stand-in is removed again whatever happens.  The
extensions stay registered under their own names, so that a later
import of the package reuses them: the LAPACK routines are then
`scipy.linalg.lapack`'s by identity, `brentq` here runs the C core that
`scipy.optimize.brentq` runs, and the ufuncs are `scipy.special`'s by
identity.  (That later import leaves the package without the extension
as an attribute; scipy itself reaches it only by import.)

So no subcommand loads any of the three packages.  A group loads on the
first use of one of its names, by the module `__getattr__`, so importing
this module loads no scipy module, and `spectrum`, `evolve` and `slant`
load only the LAPACK group.

This relies on scipy's private file layout.  If an extension is missing
or fails to load, or the `_zeros` core or `_specfun.airyzo` fails one
probe call (one with another argument list raises TypeError or
RuntimeError), or the package was imported first, the group comes from
`scipy.linalg.lapack`, `scipy.optimize` or `scipy.special` instead, so
another layout costs only the import time and behaves the same.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from typing import Callable

import numpy as np

ROUTINES = ("dgtsv", "dstebz", "dstein", "zgttrf", "zgttrs")
UFUNCS = ("ellipeinc", "elliprd", "elliprf", "loggamma", "airy")
SPECIAL_FUNCTIONS = (*UFUNCS, "ai_zeros")

# scipy.optimize.brentq's defaults
XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def find_spec(package: str) -> importlib.machinery.ModuleSpec | None:
    """Spec of scipy's subpackage `package`, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or scipy.submodule_search_locations is None:
        return None
    return importlib.machinery.PathFinder.find_spec(package, scipy.submodule_search_locations)


def load(spec: importlib.machinery.ModuleSpec | None, take: Callable, fallback: Callable):
    """`take(package)` through a stand-in for the package `spec` locates, else `fallback()`.

    The stand-in is a bare module with the package's `__path__`, through
    which `take` imports the package's extensions; it is registered only
    while `take` runs.  The fallback runs when there is no spec, when the
    package is already registered (it was imported first) and when `take`
    fails; then neither the stand-in nor a module under it is left in
    `sys.modules`.
    """
    if spec is not None and spec.name not in sys.modules:
        try:
            sys.modules[spec.name] = importlib.util.module_from_spec(spec)
            return take(sys.modules[spec.name])
        except (ImportError, AttributeError, TypeError, RuntimeError):
            for name in [name for name in sys.modules if name.startswith(spec.name + ".")]:
                _forget(name)
        finally:
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


def lapack_routines(package) -> tuple:
    """`ROUTINES` of the `_flapack` extension of `package`."""
    flapack = importlib.import_module("._flapack", package.__name__)
    return tuple(getattr(flapack, name) for name in ROUTINES)


def zeros_brentq(package) -> tuple[Callable]:
    """(`brentq`,) on the `_brentq` core of `package`'s `_zeros`, probed with one root of x - 1."""
    core = importlib.import_module("._zeros", package.__name__)._brentq

    def brentq(f: Callable[[float], float], a: float, b: float) -> float:
        """scipy.optimize.brentq(f, a, b), at scipy's defaults XTOL, RTOL and MAXITER.

        It keeps every check of scipy's public wrapper that these
        arguments can reach: ValueError for a NaN value of `f`; and, as
        with disp=True there, the core raises ValueError for a bracket
        whose ends have one sign and RuntimeError when MAXITER steps do
        not converge.
        """
        def f_raise(x: float) -> float:
            fx = f(x)
            if math.isnan(fx):
                raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
            return fx

        return core(f_raise, a, b, XTOL, RTOL, MAXITER, (), False, True)

    brentq(lambda x: x - 1.0, 0.0, 2.0)  # the probe: another core raises here
    return (brentq,)


def special_functions(package) -> tuple:
    """`SPECIAL_FUNCTIONS` from the `_ufuncs` and `_specfun` extensions of `package`."""
    ufuncs = importlib.import_module("._ufuncs", package.__name__)
    airyzo = importlib.import_module("._specfun", package.__name__).airyzo

    def ai_zeros(nt: int) -> tuple:
        """scipy.special.ai_zeros(nt): the first nt zeros of Ai and Ai', Ai(a') and Ai'(a).

        It keeps the one check of scipy's public function.
        """
        if not np.isscalar(nt) or (np.floor(nt) != nt) or (nt <= 0):
            raise ValueError("nt must be a positive integer scalar.")
        return airyzo(nt, 1)

    ai_zeros(1)  # the probe: another airyzo raises here
    return (*(getattr(ufuncs, name) for name in UFUNCS), ai_zeros)


def public(module: str, names: tuple[str, ...]) -> Callable[[], tuple]:
    """The fallback that imports scipy's public `module` and returns its `names`."""
    return lambda: tuple(getattr(importlib.import_module(module), name) for name in names)


# (names, package, take, fallback) of each group
GROUPS = (
    (ROUTINES, "scipy.linalg", lapack_routines, public("scipy.linalg.lapack", ROUTINES)),
    (("brentq",), "scipy.optimize", zeros_brentq, public("scipy.optimize", ("brentq",))),
    (SPECIAL_FUNCTIONS, "scipy.special", special_functions,
     public("scipy.special", SPECIAL_FUNCTIONS)),
)


def __getattr__(name: str):
    """The routine `name`, whose group loads on the first such call.

    Python calls this only for a name the module does not hold yet, so
    it runs once per group: the loaded names become module attributes.
    """
    for names, package, take, fallback in GROUPS:
        if name in names:
            globals().update(zip(names, load(find_spec(package), take, fallback)))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
