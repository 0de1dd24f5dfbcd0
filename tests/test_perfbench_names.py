"""The benchmark tracer wraps package functions by (module, attribute) name.

perfbench/tracing.py lists those names in its SPANS and POINTS tables; a
rename or deletion in the package would make the traced benchmark fail. The
tables are read from the source text, without importing the tracer.
"""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "POINTS"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve_on_the_package():
    tables = _tables()
    assert set(tables) == {"SPANS", "POINTS"}
    for name, table in tables.items():
        assert table, name
        for mod_name, attr in table:
            module = importlib.import_module(f"wavetraj.{mod_name}")
            assert callable(getattr(module, attr, None)), f"{name}: wavetraj.{mod_name}.{attr}"
    assert callable(importlib.import_module("wavetraj.comparison").DominatingSolution.__call__)
