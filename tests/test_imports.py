"""Every module of the package uses each name it imports.

`__init__.py` is left out: its imports are the public names it re-exports.
"""

import ast
from pathlib import Path

import rowmotion

PACKAGE = Path(rowmotion.__file__).parent


def _unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are exported
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "from math import gcd, lcm as l\n__all__ = ['gcd']\nprint(l(2, 3))\n")
    assert _unused_imports(source) == [(2, "os"), (3, "osp")]


def test_no_unused_imports_in_package():
    unused = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              and (found := _unused_imports(path.read_text()))}
    assert unused == {}
