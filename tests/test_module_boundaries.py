"""Import boundaries: numpy is the only runtime dependency, and no second
accuracy model enters the package.

scipy stays in the tests as an oracle (eigh, cumulative_simpson); no module
under wavetraj imports it, so a run never pays for loading it.

Every source carries its exact derivatives, so central differences
(wavetraj.numdiff) serve the tests' references only: christoffel_at in
geometry for the geodesic terms, and gpw.full_christoffel for the
full-geodesic oracle, whose acceleration comes from exact partials and one
LU solve; what keeps that oracle independent of the split reduction is the
full-dimensional Lorentzian integration, and the finite-difference
cross-check of its derivatives is a test. A module that imports more of
numdiff could stand finite differences in for a missing derivative again.
"""

import ast
from pathlib import Path

import wavetraj

PACKAGE = Path(wavetraj.__file__).parent
NUMDIFF_MODULES = {"geometry", "gpw"}
NUMDIFF_NAMES = {"christoffel_from_metric", "symmetric_part"}


def _numdiff_imports(tree):
    """The names each import in tree takes from numdiff; "numdiff" for the module itself."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "numdiff":
                names += [alias.name for alias in node.names]
            else:
                names += [alias.name for alias in node.names if alias.name == "numdiff"]
        elif isinstance(node, ast.Import):
            names += ["numdiff" for alias in node.names if alias.name.split(".")[-1] == "numdiff"]
    return names


def test_only_geometry_and_gpw_import_numdiff_and_only_the_christoffel_routines():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "numdiff":
            names = _numdiff_imports(ast.parse(path.read_text(encoding="utf-8")))
            if names:
                found[path.stem] = set(names)
    # the scan sees christoffel_at's import, so an empty result is not a pass
    assert "christoffel_from_metric" in found.get("geometry", set())
    assert set(found) <= NUMDIFF_MODULES, found
    assert set().union(*found.values()) <= NUMDIFF_NAMES, found


def _top_level_imports(tree):
    """The top-level package of every module an import in tree names; "" for a relative one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add("" if node.level else node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
    return names


def test_no_module_imports_scipy():
    found = {str(path.relative_to(PACKAGE)): _top_level_imports(ast.parse(path.read_text("utf-8")))
             for path in sorted(PACKAGE.rglob("*.py"))}
    # the scan sees the numpy import of dynamics, so an empty result is not a pass
    assert "numpy" in found["dynamics.py"]
    assert [stem for stem, names in found.items() if "scipy" in names] == []
