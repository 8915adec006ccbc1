"""Every name a module of the package imports is used in that module, and
every private module-level name is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "arrconn").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [(1, "math"), (2, "path")]


def _defined_names(stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return set()


def unused_private_names(sources: dict) -> list:
    """(module, name) for each module-level name with one leading
    underscore that no module in ``sources`` (module name -> source)
    reads, as a name or an attribute, outside its own definition."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _defined_names(stmt)
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
            nodes = list(ast.walk(stmt))
            reads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            reads |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            used |= reads - names
    return sorted((module, name) for module, name in defined if name not in used)


def test_private_names_have_a_caller():
    assert unused_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_finds_an_unused_private_name():
    sources = {
        "a.py": "_LIMIT = 3\ndef _kept(x):\n    return _kept(x)\ndef _used():\n    return _LIMIT\n",
        "b.py": "import a\nprint(a._used())\n",
    }
    assert unused_private_names(sources) == [("a.py", "_kept")]
