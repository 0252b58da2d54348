"""Static checks of the package source: what it imports and what it exposes."""
import ast
from collections import Counter
from pathlib import Path

import quantum_rod

SRC = Path(quantum_rod.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Public, with no caller in the package: the exact arg Gamma(1/2 + i eps),
# which the planned uniform quantization through the summit needs.
KEPT = {("summit", "half_arg_gamma_exact")}
# Defaulted parameters that no program passes: the time unit and the fall
# angle of the two propagators, kept as verification routes.
KEPT_PARAMETERS = {("dynamics", function, parameter)
                   for function in ("evolve_eigen", "evolve_direct")
                   for parameter in ("times_unit", "theta_fall")}


def _trees(folder):
    return {path: ast.parse(path.read_text()) for path in sorted(folder.glob("*.py"))}


def _package():
    """The trees of `src/` but `__init__`, whose re-exports are no use."""
    return {path: tree for path, tree in _trees(SRC).items() if path.name != "__init__.py"}


def test_no_module_imports_scipy_integrate():
    # The package's one quadrature is `spectrum.simpson`; the quadrature
    # and ODE cross-checks live in the tests' `reference_routes`.
    found = []
    for path, tree in _trees(SRC).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]  # importlib.import_module("scipy.integrate")
            else:
                continue
            found += [(path.stem, name) for name in names
                      if name == "scipy.integrate" or name.startswith("scipy.integrate.")]
    assert found == []


IMPORTERS = {"_lazy", "import_module"}


def test_only_scipy_ext_imports_scipy():
    # `_scipy_ext` owns every use of scipy's private file layout, so no
    # other module imports from scipy, by statement, `importlib` or `_lazy`.
    found = []
    for path, tree in _trees(SRC).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            elif isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                names = [arg.value for arg in node.args if called in IMPORTERS
                         and isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            else:
                continue
            found += [(path.stem, name) for name in names if name.split(".")[0] == "scipy"]
    assert [(stem, name) for stem, name in found if stem != "_scipy_ext"] == []


def test_every_public_definition_has_a_caller():
    # A public module-level function or class of `src/` is used by the
    # package itself or by perfbench; what only tests use lives in tests/.
    # A re-export from __init__ is not a use.
    package = _package()
    used = Counter()
    for tree in [*package.values(), *_trees(PERFBENCH).values()]:
        for node in ast.walk(tree):
            used[getattr(node, "id", None) or getattr(node, "attr", None)
                 or (node.name if isinstance(node, ast.alias) else None)] += 1
    uncalled = {(path.stem, node.name) for path, tree in package.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and not used[node.name]}
    assert uncalled == KEPT


def test_every_defaulted_parameter_is_passed():
    # A default of a public module-level function of `src/` that no call in
    # the package or perfbench overrides, by keyword or by position, is a
    # constant: the entry point has one calling form.
    package = _package()
    passed = set()
    for tree in [*package.values(), *_trees(PERFBENCH).values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed |= {(name, keyword.arg) for keyword in node.keywords}
                passed |= {(name, index) for index in range(len(node.args))}
    unpassed = set()
    for path, tree in package.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                defaulted = [*enumerate(positional)][len(positional) - len(args.defaults):]
                defaulted += [(None, arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                unpassed |= {(path.stem, node.name, arg.arg) for index, arg in defaulted
                             if not {(node.name, arg.arg), (node.name, index)} & passed}
    assert unpassed == KEPT_PARAMETERS
