"""The package's import graph is settled when its modules load."""

import ast
import re
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


def test_no_module_imports_a_private_name_from_a_sibling():
    # an underscore name belongs to its own module: a name a sibling needs
    # is made public where it is defined
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} {alias.name}"
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").startswith("eoscatter"))
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_export_list_resolves_once_and_is_what_a_star_import_binds():
    names = eoscatter.__all__
    assert [n for n in names if not hasattr(eoscatter, n)] == []
    assert len(set(names)) == len(names)
    bound = {}
    exec("from eoscatter import *", bound)
    assert set(bound) - {"__builtins__"} == set(names)


def _number_classes(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr in ("Real", "Integral")
            and isinstance(node.value, ast.Name) and node.value.id == "numbers"]


def test_the_number_rule_is_stated_once():
    # "a number, not a bool" is grid.check_real and grid.check_integer:
    # numbers.Real and numbers.Integral appear nowhere else in the package
    inside, found = set(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if (path.name == "grid.py" and isinstance(fn, ast.FunctionDef)
                    and fn.name in ("check_real", "check_integer")):
                inside |= {id(node) for node in _number_classes(fn)}
        found += [f"{path.name}:{node.lineno}" for node in _number_classes(tree)
                  if id(node) not in inside]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "numbers"]
    assert len(inside) == 2
    assert found == []


def test_readme_library_use_names_every_export():
    # every name a star import binds is documented where a library user
    # looks, as inline code in README's "Library use" section
    readme = (SRC.parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in eoscatter.__all__
               if not re.search(rf"`{re.escape(name)}\b", section)]
    assert missing == []
    # a removed public name stays listed there as removed
    assert "`FixedLagReader` was removed" in section
