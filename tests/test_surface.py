"""The public surface of ``hcspec`` is what the package itself reaches.

Every module-level public function, class and constant of ``src/hcspec``
must be referenced by some module of the package other than ``__init__``
(its own module counts), so no public name lives only for the tests.  The
walk is syntactic: a name counts as referenced when it is read as a bare
name, read as an attribute, or imported by name anywhere in such a module.
``REFERENCE_TOOLS`` lists the exceptions, reference tools that the tests
compare the package against.
"""

import ast
from pathlib import Path

import hcspec

PACKAGE = Path(hcspec.__file__).parent

#: Public names that only tests reach, with the reason each stays.
REFERENCE_TOOLS = {
    "enumerate_below": "lists a spectral set's values below a cutoff, the exact view tests compare sums and products with",
    "is_subset": "exact containment, which tests use to check essential spectra against spectra",
    "product_laplacian_blocks": "the blockwise product Laplacian, the independent side of the tensor-build tests",
    "derive_catalogue_values": "regenerates the Gaussian catalogue constants from the ladder-operator oracle",
    "builtin_models": "the whole model catalogue, which criterion 6 and the README use",
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
    """Public module-level name -> defining module, for every name that no
    module other than ``__init__`` references."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _referenced(tree)
        for node in tree.body:
            defined.update((name, path.stem) for name in _defined(node) if not name.startswith("_"))
    return {name: module for name, module in defined.items() if name not in referenced}


def test_every_public_name_is_reached_from_the_package():
    unreached = {
        f"{module}.{name}" for name, module in _unreached().items() if name not in REFERENCE_TOOLS
    }
    assert not unreached, f"public names only tests reach: {sorted(unreached)}"


def test_reference_tools_are_public_and_otherwise_unreached():
    # an entry that the package reaches, or that is gone, no longer needs
    # its exemption
    assert set(REFERENCE_TOOLS) <= set(_unreached())
