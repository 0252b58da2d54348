"""The five LAPACK routines the package calls, without the scipy.linalg package.

`import scipy.linalg.lapack` runs `scipy/linalg/__init__.py`, which loads
most of scipy.linalg and, through it, numpy.f2py and numpy.testing: about
150 ms of every cold start, for five routines.  They live in one
extension, `scipy/linalg/_flapack.*.so`, which is loaded here on its own
and registered in `sys.modules` under its own name, so that a later
`import scipy.linalg` reuses it and these are `scipy.linalg.lapack`'s
routines by identity.  (That later import leaves the package without a
`_flapack` attribute; scipy itself reaches the module only by import.)

This relies on scipy's private file layout.  If the file is missing or
fails to load, the routines come from `scipy.linalg.lapack` instead, so
another layout costs only the import time and behaves the same.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

FLAPACK = "scipy.linalg._flapack"
ROUTINES = ("dgtsv", "dstebz", "dstein", "zgttrf", "zgttrs")


def flapack_spec() -> importlib.machinery.ModuleSpec | None:
    """Spec of scipy's `_flapack` extension, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or scipy.submodule_search_locations is None:
        return None
    linalg = [os.path.join(base, "linalg") for base in scipy.submodule_search_locations]
    return importlib.machinery.PathFinder.find_spec(FLAPACK, linalg)


def load(spec: importlib.machinery.ModuleSpec | None) -> tuple:
    """`ROUTINES` from the module `spec` locates, else from scipy.linalg.lapack."""
    if spec is not None and FLAPACK not in sys.modules:
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[FLAPACK] = module
            spec.loader.exec_module(module)
            return tuple(getattr(module, name) for name in ROUTINES)
        except (ImportError, AttributeError):
            sys.modules.pop(FLAPACK, None)
    from scipy.linalg import lapack
    return tuple(getattr(lapack, name) for name in ROUTINES)


dgtsv, dstebz, dstein, zgttrf, zgttrs = load(flapack_spec())
