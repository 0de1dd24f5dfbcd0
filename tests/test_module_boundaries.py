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

G is checked in one place: one function of geometry factors it by Cholesky,
and the other modules reach the check only through geometry's public names.

Every catalog chart is expression text, so the force equation's kernel can
write its metric, geodesic term and guard out; a function in catalog.py
that reads a coordinate of its chart point is a chart written by hand.

The chart guard is checked during a run in one place, the force equation's
kernel: only dynamics reads a guard's generated value (its positive
attribute), and no module generates a second guard function.
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


def test_catalog_writes_no_chart_function_by_hand():
    tree = ast.parse((PACKAGE / "catalog.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    # the scan sees the catalog's builders, so an empty result is not a pass
    assert len(functions) > 20
    by_hand = []
    for fn in functions:
        names = {arg.arg for arg in fn.args.args}
        for node in ast.walk(fn):
            read = (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id in names and node.value.id in ("x", "v", "y"))
            unpacked = (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                        and node.value.id in names and node.value.id in ("x", "v", "y")
                        and isinstance(node.targets[0], ast.Tuple))
            if read or unpacked:
                by_hand.append(getattr(fn, "name", "lambda"))
    assert by_hand == []


def _is_cholesky(node):
    """Whether node is the attribute np.linalg.cholesky."""
    return (isinstance(node, ast.Attribute) and node.attr == "cholesky"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "np")


def test_geometry_factors_the_metric_in_one_function():
    tree = ast.parse((PACKAGE / "geometry.py").read_text(encoding="utf-8"))
    top = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    top += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)]
    factoring = {fn.name for fn in top if any(_is_cholesky(node) for node in ast.walk(fn))}
    everywhere = sum(_is_cholesky(node) for node in ast.walk(tree))
    inside = sum(_is_cholesky(node) for fn in top for node in ast.walk(fn))
    assert factoring == {"_checked_metrics"}
    assert everywhere == inside


def test_no_module_imports_a_private_name_of_geometry():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry"):
                found.setdefault(path.stem, set()).update(alias.name for alias in node.names)
    # the scan sees dynamics' import of diagonal_of, so an empty result is not a pass
    assert "diagonal_of" in found.get("dynamics", set())
    private = sorted((stem, name) for stem, names in found.items()
                     for name in names if name.startswith("_"))
    assert private == []


def _reads_positive(node):
    """Whether node reads an attribute named positive: x.positive, or getattr(x, "positive", ...)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "positive" and isinstance(node.ctx, ast.Load)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "positive")


def test_only_dynamics_reads_the_generated_guard():
    readers, guard_functions = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _reads_positive(node):
                readers.add(path.stem)
            if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") == "guard_function":
                guard_functions.append(f"{path.stem}.{node.name}")
    # the scan sees the kernel's read, so an empty result is not a pass
    assert readers == {"dynamics"}
    assert guard_functions == []
