"""The package's import graph is settled when its modules load."""

import ast
from pathlib import Path

import eoscatter

SRC = Path(eoscatter.__file__).parent


def test_no_module_imports_inside_a_function():
    # an import made at call time hides an import cycle until the call
    modules = sorted(SRC.rglob("*.py"))
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(modules) >= 10
    assert found == []


def test_export_list_resolves_once_and_is_what_a_star_import_binds():
    names = eoscatter.__all__
    assert [n for n in names if not hasattr(eoscatter, n)] == []
    assert len(set(names)) == len(names)
    bound = {}
    exec("from eoscatter import *", bound)
    assert set(bound) - {"__builtins__"} == set(names)
