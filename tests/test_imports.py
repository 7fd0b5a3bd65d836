"""Every module of the package uses each name it imports, some module of
the package reads each private name a module defines at its top level, and
every package name that the benchmark calls exists.

`__init__.py` is left out of the first check: its imports are the public
names it re-exports.
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


def _private_definitions(source):
    """(line, name) of each private function, class or constant that a module
    defines at its top level (dunder names left out)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def _names_read(source):
    """Every name a module reads: as a variable, as an attribute, or by a
    `from ... import`."""
    tree = ast.parse(source)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(sources):
    """{module: [(line, name)]} of the private top-level names that no module
    of `sources` ({module: source}) reads."""
    read = set().union(*map(_names_read, sources.values()))
    unread = {module: [(line, name) for line, name in _private_definitions(source)
                       if name not in read]
              for module, source in sources.items()}
    return {module: found for module, found in unread.items() if found}


def test_checker_finds_unread_private_names():
    sources = {
        "a.py": "_LIMIT = 3\n_kept = 1\ndef _orphan():\n    return _kept\n"
                "class _Box:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _Box\n",
    }
    assert _unread_private_names(sources) == {"a.py": [(1, "_LIMIT"), (3, "_orphan")]}


def test_no_unread_private_names_in_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == {}


# -- names the benchmark calls ---------------------------------------------------

BENCH = PACKAGE.parent.parent / "bench"


def _package_chain(node, aliases):
    """(module, name) when `node` reads `<...>.rm.<module>.<name>` or
    `<alias>.<name>` for a local alias of `<...>.rm.<module>`, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id in aliases:
        return aliases[base.id], node.attr
    if isinstance(base, ast.Attribute) and _is_package(base.value):
        return base.attr, node.attr
    return None


def _is_package(node):
    """Whether `node` is the package: a name `rm` or an attribute `<...>.rm`."""
    return ((isinstance(node, ast.Name) and node.id == "rm")
            or (isinstance(node, ast.Attribute) and node.attr == "rm"))


def _module_aliases(tree):
    """{local name: module} of the one-level aliases, such as
    `L = rd.rm.lifted` or `D, P = rd.rm.dynamics, rd.poset(spec)`."""
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                pairs = [(target, node.value)]
            elif isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            else:
                continue
            for name, value in pairs:
                if (isinstance(name, ast.Name) and isinstance(value, ast.Attribute)
                        and _is_package(value.value)):
                    assert aliases.get(name.id, value.attr) == value.attr, name.id
                    aliases[name.id] = value.attr
    return aliases


def _package_names_read(source):
    """Sorted (module, name) pairs of the package that `source` reads."""
    tree = ast.parse(source)
    aliases = _module_aliases(tree)
    return sorted({pair for node in ast.walk(tree)
                   if (pair := _package_chain(node, aliases)) is not None})


def test_checker_resolves_package_chains():
    source = ("def run(rd, rm):\n"
              "    L = rd.rm.lifted\n"
              "    D, P = rd.rm.dynamics, rd.poset('x')\n"
              "    return L.check_constant, D.orbit, rm.qrow.q_orbits, rd.view, P.n\n")
    assert _package_names_read(source) == [
        ("dynamics", "orbit"), ("lifted", "check_constant"), ("qrow", "q_orbits")]


def test_every_name_the_benchmark_calls_exists():
    import importlib

    read = {path.name: _package_names_read(path.read_text())
            for path in sorted(BENCH.glob("*.py"))}
    assert read["workloads.py"]  # the resolver still finds the benchmark's calls
    missing = {name: [f"{module}.{attr}" for module, attr in pairs
                      if not hasattr(importlib.import_module(f"rowmotion.{module}"), attr)]
               for name, pairs in read.items()}
    assert {name: found for name, found in missing.items() if found} == {}
