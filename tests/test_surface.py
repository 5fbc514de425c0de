"""The public surface of ``hcspec`` is what the package itself reaches.

Every module-level public function, class and constant of ``src/hcspec``,
and every public method and property in the body of such a class, must be
referenced by some module of the package other than ``__init__`` (its own
module counts), so no public name lives only for the tests.  The walk is
syntactic: a name counts as referenced when it is read as a bare name, read
as an attribute, or imported by name anywhere in such a module.
``REFERENCE_TOOLS`` lists the exceptions, reference tools that the tests
compare the package against.

Likewise every defaulted parameter of a module-level function of the
package must be passed, by position or by keyword, at some call site in the
package, so that no option lives on that no caller sets; ``UNSET_DEFAULTS``
lists the exceptions.

And every name a module of the package imports must be read in that module
(``__init__`` and ``__future__`` imports aside), so a deletion leaves no
dead import behind.

And no module but ``numerics`` calls numpy's raw eigen, SVD or Kronecker
kernels, so each result passes the gates there; ``RAW_KERNEL_CALLS`` lists
the exceptions.

And no module imports ``dataclasses``, whose import pulls in ``inspect`` and
so costs every command a large share of its start-up.
"""

import ast
from pathlib import Path

import hcspec

PACKAGE = Path(hcspec.__file__).parent

#: Public names that only tests reach, with the reason each stays.
REFERENCE_TOOLS = {
    "derive_catalogue_values": "regenerates the Gaussian catalogue constants from the ladder-operator oracle",
    "builtin_models": "the whole model catalogue, which criterion 6 and the README use",
}


#: ``module.function(parameter)`` defaults that no package call site passes,
#: with the reason each stays.
UNSET_DEFAULTS = {
    "cli.main(argv)": "the entry point, which the console script calls without arguments",
    "fuzzing.random_factor_model(infinite_chance)": "tests vary the chance of infinite multiplicities",
    "gaussian_oracle.derive_catalogue_values(truncation)": "tests vary the truncation",
    "fuzzing.run_spectra_suite(cutoff)": "run_kind_suites passes it through a variable",
    "fuzzing.run_verdict_suite(cutoff)": "run_kind_suites passes it through a variable",
}


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreached() -> dict[str, str]:
    """``module.name`` or ``module.Class.name`` -> name, for every public
    module-level name, and public method or property of a module-level
    class, that no module other than ``__init__`` references."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _referenced(tree)
        for node in tree.body:
            defined.update((f"{path.stem}.{name}", name) for name in _defined(node))
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
    return {
        shown: name
        for shown, name in defined.items()
        if not name.startswith("_") and name not in referenced
    }


def test_every_public_name_is_reached_from_the_package():
    unreached = {shown for shown, name in _unreached().items() if name not in REFERENCE_TOOLS}
    assert not unreached, f"public names only tests reach: {sorted(unreached)}"


def test_reference_tools_are_public_and_otherwise_unreached():
    # an entry that the package reaches, or that is gone, no longer needs
    # its exemption
    assert set(REFERENCE_TOOLS) <= set(_unreached().values())


def _unset_defaults() -> set[str]:
    """``module.function(parameter)`` for every defaulted parameter of a
    module-level function that no call in the package passes.  Calls are
    matched to functions by name, as ``f(...)`` or ``x.f(...)``."""
    defaults: dict[str, list[tuple[str, str, int | None]]] = {}
    passed: dict[str, list[tuple[int, set[str]]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                entries = [(path.stem, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
                entries += [
                    (path.stem, arg.arg, None)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                defaults.setdefault(node.name, []).extend(entries)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                keywords = {keyword.arg for keyword in node.keywords}
                passed.setdefault(name, []).append((len(node.args), keywords))
    return {
        f"{module}.{function}({parameter})"
        for function, entries in defaults.items()
        for module, parameter, position in entries
        if not any(
            (position is not None and count > position) or parameter in keywords
            for count, keywords in passed.get(function, [])
        )
    }


def test_every_default_is_passed_somewhere_in_the_package():
    unset = _unset_defaults() - set(UNSET_DEFAULTS)
    assert not unset, f"defaulted parameters no package call site passes: {sorted(unset)}"


def test_unset_default_exemptions_are_still_needed():
    assert set(UNSET_DEFAULTS) <= _unset_defaults()


def _unread_imports() -> list[str]:
    """``module.name`` for every name a module of the package other than
    ``__init__`` imports, at any depth, and never reads."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    return unread


def test_every_imported_name_is_read():
    unread = _unread_imports()
    assert not unread, f"imported names the module never reads: {unread}"


#: Raw numpy eigen, SVD and Kronecker kernels; outside ``numerics`` every
#: Hermitian eigenvalue goes through ``hermitian_eig``'s gates, every SVD
#: through ``_svd`` and every Kronecker sum through ``kronecker_sum``.
RAW_KERNELS = {"eigh", "eigvalsh", "eig", "eigvals", "svd", "kron"}

#: ``module.function: kernel`` calls allowed outside ``numerics``, with the
#: reason each stays.
RAW_KERNEL_CALLS = {
    "jointspec.cartesian_gap: eigvals": "the independent reference side of guarantee 7",
}


def _raw_kernel_calls() -> set[str]:
    """``module.function: kernel`` for every call of ``np.linalg.<kernel>``
    or ``np.kron`` in a module of the package other than ``numerics``, by
    the top-level function or class that holds it, and ``module: imports
    kernel`` for every kernel imported from numpy by name."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "numerics":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            holder = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                    names = {alias.name for alias in node.names} & RAW_KERNELS
                    found.update(f"{path.stem}: imports {name}" for name in names)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in RAW_KERNELS
                    and ast.unparse(node.func.value) in ("np", "np.linalg", "numpy", "numpy.linalg")
                ):
                    found.add(f"{holder}: {node.func.attr}")
    return found


def test_raw_eigen_svd_and_kronecker_kernels_live_in_numerics():
    stray = _raw_kernel_calls() - set(RAW_KERNEL_CALLS)
    assert not stray, f"raw numpy kernels called outside numerics: {sorted(stray)}"


def test_no_module_imports_dataclasses():
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.partition(".")[0] == "dataclasses" for module in modules):
                importers.add(path.stem)
    assert not importers, f"modules importing dataclasses: {sorted(importers)}"


def test_raw_kernel_exemptions_are_still_needed():
    assert set(RAW_KERNEL_CALLS) <= _raw_kernel_calls()
