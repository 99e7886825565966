"""Every top-level import in the package, the tests and the demos is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ imports names only to re-export them.
MODULES = sorted(p for folder in ("src/qempar", "tests", "demos")
                 for p in (ROOT / folder).glob("*.py")
                 if p != ROOT / "src/qempar/__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports (from __future__ aside)
    that no expression of the module reads. A name a function takes as a
    parameter counts as read, since pytest passes fixtures imported by name
    that way."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\nimport os, sys\n"
                          "from math import fsum as add, pi\nprint(sys.argv, pi)\n") == [
        "line 2: os", "line 3: add"]
    assert unused_imports("from conftest import tiny_field\n"
                          "def test_it(tiny_field):\n    pass\n") == []


def test_every_top_level_import_is_used():
    assert len(MODULES) > 20
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
