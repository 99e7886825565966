"""Every top-level import in the package, the tests and the demos is used,
every field of a package class is read by some module of the package,
every public method of a package class is read by the package or the
demos, every private helper of the package has a caller in the package and
reads every parameter it takes, and no function of the package rebinds a
module global."""

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


# to_dict() serialises every field of RunMetrics, none of them by name.
UNREAD_EXEMPT = {"RunMetrics"}


def unread_fields(sources: list[str]) -> list[str]:
    """Class.field for each field of a class in sources that no module of
    sources reads as an attribute. A class's fields are its annotated
    class-body names and the self.x its __init__ assigns; classes named in
    UNREAD_EXEMPT are skipped."""
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in UNREAD_EXEMPT:
                continue
            fields = [stmt.target.id for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            inits = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            for node in (node for init in inits for node in ast.walk(init)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                fields += [t.attr for t in targets if isinstance(t, ast.Attribute)
                           and isinstance(t.value, ast.Name) and t.value.id == "self"]
            unread += [f"{cls.name}.{name}" for name in fields if name not in read]
    return unread


def test_the_scan_finds_an_unread_field():
    assert unread_fields([
        "class Node:\n    x: int\n    tag: str\n"
        "class Ledger:\n    def __init__(self):\n        self.total = 0\n"
        "        self.spare: int = 0\n"
        "class RunMetrics:\n    unused: int\n",
        "def f(node, ledger):\n    ledger.total += 1\n    return node.x + ledger.total\n",
    ]) == ["Node.tag", "Ledger.spare"]


def test_every_field_of_a_package_class_is_read():
    sources = [p.read_text(encoding="utf-8") for p in (ROOT / "src/qempar").glob("*.py")]
    assert unread_fields(sources) == []


def unread_methods(package: list[str], others: list[str]) -> list[str]:
    """Class.method for each public method (no leading _) of a class in the
    package sources that no module of package or others reads as an
    attribute. A method that only tests call belongs in tests/."""
    trees = [ast.parse(source) for source in package]
    read = {node.attr for tree in trees + [ast.parse(source) for source in others]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{func.name}" for tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for func in cls.body
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not func.name.startswith("_") and func.name not in read]


def test_the_scan_finds_an_unread_method():
    assert unread_methods([
        "class Buffer:\n    def drop(self):\n        pass\n"
        "    def spare(self):\n        pass\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def _helper(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n",
        "def run(buffer):\n    buffer.drop()\n",
    ], ["print(Buffer().size)\n"]) == ["Buffer.spare"]


# Public methods that nothing in the package or the demos calls, each kept
# for a reader outside them.
UNREAD_METHODS_KEPT = {
    "NetworkState.record_send": "perfbench/tracer.py wraps it (ROADMAP items 1 and 5)",
    "NetworkState.record_receive": "perfbench/tracer.py wraps it (ROADMAP items 1 and 5)",
    "NetworkState.active_transmitters_near": "perfbench/tracer.py wraps it (ROADMAP items "
                                             "1 and 5)",
    "RunMetrics.to_dict": "the pinned digests and the benchmark read a run's metrics with it",
}


def test_every_public_method_of_a_package_class_is_read():
    package = [p.read_text(encoding="utf-8") for p in (ROOT / "src/qempar").glob("*.py")]
    demos = [p.read_text(encoding="utf-8") for p in (ROOT / "demos").glob("*.py")]
    assert sorted(unread_methods(package, demos)) == sorted(UNREAD_METHODS_KEPT)


def unreferenced_helpers(sources: list[str]) -> list[str]:
    """Each module-level function or class named _x (dunders aside) in
    sources that no other top-level statement of sources reads, as a name
    or as an attribute. A helper that only tests call belongs in tests/."""
    helpers, reads = [], []
    for tree in map(ast.parse, sources):
        for stmt in tree.body:
            own = getattr(stmt, "name", "")
            if own.startswith("_") and not own.startswith("__"):
                helpers.append(own)
            reads.append((own, {node.id if isinstance(node, ast.Name) else node.attr
                                for node in ast.walk(stmt)
                                if isinstance(node, (ast.Name, ast.Attribute))
                                and isinstance(node.ctx, ast.Load)}))
    return [h for h in helpers if not any(h in names for own, names in reads if own != h)]


def test_the_scan_finds_an_unused_helper():
    assert unreferenced_helpers([
        "def _used():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Spare:\n    pass\n"
        "def __getattr__(name):\n    pass\n",
        "from . import a\ndef run():\n    return a._used()\n",
    ]) == ["_recursive", "_Spare"]


def test_every_private_helper_has_a_caller():
    sources = [p.read_text(encoding="utf-8") for p in (ROOT / "src/qempar").glob("*.py")]
    assert unreferenced_helpers(sources) == []


def unread_parameters(sources: list[str]) -> list[str]:
    """function: parameter for each parameter of a module-level function
    named _x (dunders aside) in sources that its body never reads. Every
    caller of a private helper is in the package, so a parameter it ignores
    can go."""
    found = []
    for tree in map(ast.parse, sources):
        for func in tree.body:
            if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or not func.name.startswith("_") or func.name.startswith("__")):
                continue
            args = func.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                      *args.kwonlyargs, args.kwarg) if a is not None]
            read = {node.id for stmt in func.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found += [f"{func.name}: {name}" for name in params if name not in read]
    return found


def test_the_scan_finds_an_unread_parameter():
    assert unread_parameters([
        "def _helper(state, a, *rest, key=None, **extra):\n"
        "    return [lambda: a, rest, extra]\n"
        "def public(unused):\n    pass\n"
        "def __getattr__(name):\n    pass\n"
        "class Ledger:\n    def _add(self, node):\n        pass\n",
    ]) == ["_helper: state", "_helper: key"]


def test_every_private_helper_reads_its_parameters():
    sources = [p.read_text(encoding="utf-8") for p in (ROOT / "src/qempar").glob("*.py")]
    assert unread_parameters(sources) == []


def global_statements(sources: list[str]) -> list[str]:
    """function: names for each global statement in a function of sources.
    State a function keeps between calls belongs to an object its caller
    holds, not to the module, where every caller shares it."""
    found = []
    for tree in map(ast.parse, sources):
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{func.name}: {', '.join(node.names)}" for node in ast.walk(func)
                          if isinstance(node, ast.Global)]
    return found


def test_the_scan_finds_a_global_statement():
    assert global_statements([
        "_cache = None\n"
        "def reset():\n    global _cache\n    _cache = None\n"
        "class Log:\n    def write(self, text):\n        global _cache, _count\n"
        "        _cache = text\n"
        "def read():\n    return _cache\n",
    ]) == ["reset: _cache", "write: _cache, _count"]


def test_no_package_function_rebinds_a_module_global():
    sources = [p.read_text(encoding="utf-8") for p in (ROOT / "src/qempar").glob("*.py")]
    assert global_statements(sources) == []
