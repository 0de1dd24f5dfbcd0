"""Import boundaries: numpy is the only runtime dependency, and no second
accuracy model enters the package.

scipy stays in the tests as an oracle (eigh, cumulative_simpson); no module
under wavetraj imports it, so a run never pays for loading it.

Every source carries its exact derivatives, so central differences
(wavetraj.numdiff) serve the tests' references only: christoffel_at in
geometry for the geodesic terms, and gpw.full_christoffel for the
full-geodesic oracle, whose acceleration comes from exact partials and one
solve against the whole Lorentzian metric; what keeps that oracle independent of the split reduction is the
full-dimensional Lorentzian integration, and the finite-difference
cross-check of its derivatives is a test. A module that imports more of
numdiff could stand finite differences in for a missing derivative again.

G is checked in one place: one function of geometry factors it by Cholesky,
and the other modules reach the check only through geometry's public names.

Every catalog chart is expression text, so the force equation's kernel can
write its metric, geodesic term and guard out; a function in catalog.py
that reads a coordinate of its chart point is a chart written by hand.

The chart guard is checked during a run in one place, the force equation's
kernel, and no module generates a second guard function. A guard is a
function whose value is > 0 inside the chart, an expression guard the
chart function itself, with no attribute that holds a second form of it.

There is one kind of flat chart, the Euclidean one: a constant metric is
the identity, so ChartManifold derives flat alone and no module keeps a
second flag or a Python twin of the generated metric check.

A source is reached one way from arrays and one way from generated code:
expressions.on_rows (and on_window, which calls it) takes the source
alone and calls it on Python floats where its array form does not serve,
and expressions.Inliner writes a chart function in or calls any other
source, its value unpacked by expressions._floats. So ForceSystem and
WaveCoefficient hold their sources and no adapter method, and no other
module converts a called source's value on its own.

certify is the one entry point of the premise checks: hypotheses defines no
public function besides it and the two scans a caller reads on their own
(check_S_bounds for the envelope's N_T, check_linear_growth_gradH), and gpw
reaches certificates through no import of hypotheses.
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
    # the scan sees dynamics' import of metric_factors, so an empty result is not a pass
    assert "metric_factors" in found.get("dynamics", set())
    private = sorted((stem, name) for stem, names in found.items()
                     for name in names if name.startswith("_"))
    assert private == []


def _attribute_named(node):
    """The attribute name node reads or sets: x.name, or getattr/setattr/hasattr(x, "name", ...)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "hasattr") and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)):
        return node.args[1].value
    return None


def test_no_module_touches_a_second_form_of_the_guard():
    touched, guard_functions = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = _attribute_named(node)
            if name is not None:
                touched.setdefault(name, set()).add(path.stem)
            if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") == "guard_function":
                guard_functions.append(f"{path.stem}.{node.name}")
    # the scan sees the kernel's read of the guard and getattr's of the chart
    # attribute, so an empty result is not a pass
    assert "dynamics" in touched["domain_guard"] and "expressions" in touched["chart"]
    assert "positive" not in touched
    assert guard_functions == []


def test_a_chart_derives_flat_alone():
    from dataclasses import fields

    from wavetraj.geometry import ChartManifold

    derived = [f.name for f in fields(ChartManifold) if not f.init]
    assert derived == ["flat", "generated"]


def test_the_second_flat_kind_and_its_twins_are_gone():
    gone = ("identity_metric", "diagonal_of", "chart_guard")
    found = [(path.stem, name) for path in sorted(PACKAGE.rglob("*.py"))
             for name in gone if name in path.read_text(encoding="utf-8")]
    assert found == []


def _imported_modules(tree):
    """The last component of every module an import in tree names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[-1])
            names.update(alias.name for alias in node.names if node.module is None)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_gpw_imports_nothing_from_hypotheses():
    found = {path.stem: _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    # the scan sees gpw's import of dynamics and runner's of hypotheses, so an
    # empty result is not a pass
    assert "dynamics" in found["gpw"]
    assert "hypotheses" in found["runner"]
    assert "hypotheses" not in found["gpw"]


def test_certify_and_two_scans_are_the_public_functions_of_hypotheses():
    tree = ast.parse((PACKAGE / "hypotheses.py").read_text(encoding="utf-8"))
    functions = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    # the scan sees the private helpers too, so an empty result is not a pass
    assert "_premise" in functions
    public = sorted(name for name in functions if not name.startswith("_"))
    assert public == ["certify", "check_S_bounds", "check_linear_growth_gradH"]


def _functions(path):
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)]


def test_the_source_holders_have_no_methods():
    for stem, name in (("dynamics", "ForceSystem"), ("gpw", "WaveCoefficient")):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)
        methods = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
        assert methods == ["__post_init__"], (name, methods)


def test_on_rows_and_on_window_take_one_callable():
    found = {fn.name: fn for fn in _functions(PACKAGE / "expressions.py")
             if fn.name in ("on_rows", "on_window")}
    assert [a.arg for a in found["on_rows"].args.args] == ["source"]
    assert found["on_rows"].args.vararg.arg == "args"
    assert [a.arg for a in found["on_window"].args.args] == ["source", "points", "times"]
    for fn in found.values():
        params = {a.arg for a in fn.args.args}
        called = {node.func.id for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        # no parameter but the source is called
        assert called & params <= {"source"}, fn.name
    assert "source" in {node.func.id for node in ast.walk(found["on_rows"])
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    calls = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("on_rows", "on_window")):
                calls += 1
                # no scalar twin beside the source: no lambda, and no holder's own call
                twins = [arg for arg in node.args[1:] if isinstance(arg, ast.Lambda)
                         or (isinstance(arg, ast.Name) and arg.id == "self")]
                assert twins == [], path.stem
                assert node.func.id == "on_rows" or len(node.args) == 3, path.stem
    # the scan sees the premise scans, the energy and the wave calls, so an empty result is not a pass
    assert calls >= 10


def test_floats_is_defined_and_bound_in_expressions_only():
    places = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = ((isinstance(node, ast.FunctionDef) and node.name == "_floats")
                     or (isinstance(node, ast.Name) and node.id == "_floats")
                     or (isinstance(node, ast.alias) and node.name == "_floats"))
            if named:
                places.setdefault(path.stem, []).append(type(node).__name__)
    # defined once, and bound where the Inliner writes a call
    assert places == {"expressions": ["FunctionDef", "Name"]}
