"""Every function and method of ``src/repro`` has a reader outside the tests.

A name only ``tests/`` calls is surface the program carries for nothing, so
this scan keeps it from regrowing.  Each top-level function and each method
of a top-level class under ``src/repro`` must be read somewhere in ``src/``,
``bench/``, ``benchmarks/`` or ``examples/`` outside its own definition: as
a bare name, as an attribute, through ``from … import`` (a package
``__init__`` re-export does not count), or as a ``"module:attr"`` string in
``bench/adapter.py``, which resolves the program by name.  ``__all__``
entries do not count, and dunder methods are the language's to call.

The match is by bare name, so a method is read when any object's attribute
of that name is; the scan catches names nothing reads at all.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
READERS = ("src", "bench", "benchmarks", "examples")

#: Names kept with no reader in the program, each for a reason.
ALLOWED = {
    # The entry point the package docstring shows.
    "__init__.py:quickstart_pipeline",
}

_ADAPTER_TARGET = re.compile(r"^[\w.]+:(\w+)$")


def _definitions(tree: ast.Module) -> Dict[str, str]:
    """``{qualified name: bare name}`` of top-level functions and methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        found[f"{node.name}.{item.name}"] = item.name
    return found


class _Reads(ast.NodeVisitor):
    """Names read in a module, except inside a definition of the same name."""

    def __init__(self, counts_imports: bool, adapter: bool) -> None:
        self.read: Set[str] = set()
        self._within: List[str] = []
        self._counts_imports = counts_imports
        self._adapter = adapter

    def _note(self, name: str) -> None:
        if name not in self._within:
            self.read.add(name)

    def visit_FunctionDef(self, node) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.visit(node.args)
        if node.returns is not None:
            self.visit(node.returns)
        self._within.append(node.name)
        for statement in node.body:
            self.visit(statement)
        self._within.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self._note(node.id)

    def visit_Attribute(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self._note(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node) -> None:
        if self._counts_imports:
            for alias in node.names:
                self._note(alias.name)

    def visit_Constant(self, node) -> None:
        if self._adapter and isinstance(node.value, str):
            match = _ADAPTER_TARGET.match(node.value)
            if match:
                self._note(match.group(1))


def reads_of(source: str, path: str) -> Set[str]:
    """Names ``source`` (the file at repo-relative ``path``) reads."""
    visitor = _Reads(
        counts_imports=not path.endswith("__init__.py"),
        adapter=path == "bench/adapter.py",
    )
    visitor.visit(ast.parse(source))
    return visitor.read


def unread_definitions(modules: Dict[str, str], readers: Dict[str, str]) -> List[str]:
    """``"module:qualname"`` of each definition in ``modules`` (path →
    source) whose name none of ``readers`` (repo-relative path → source)
    reads outside its own definition."""
    read: Set[str] = set()
    for path, source in readers.items():
        read |= reads_of(source, path)
    return sorted(
        f"{module}:{qualname}"
        for module, source in modules.items()
        for qualname, name in _definitions(ast.parse(source)).items()
        if name not in read
    )


def _sources(root: Path, relative_to: Path) -> Dict[str, str]:
    return {
        path.relative_to(relative_to).as_posix(): path.read_text()
        for path in sorted(root.rglob("*.py"))
    }


def test_every_src_definition_is_read_outside_the_tests():
    readers: Dict[str, str] = {}
    for directory in READERS:
        readers.update(_sources(ROOT / directory, ROOT))
    unread = unread_definitions(_sources(SRC, SRC), readers)
    assert len(ALLOWED) <= 1
    assert sorted(set(unread) - ALLOWED) == []
    assert sorted(ALLOWED - set(unread)) == [], "allowlisted names now have readers"


def test_the_scan_sees_a_test_only_method():
    module = (
        "class Store:\n"
        "    def __init__(self):\n"
        "        self.items = []\n"
        "    def put(self, item):\n"
        "        self.items.append(item)\n"
        "    def peek(self):\n"
        "        return self.items[-1]\n"
        "    def walk(self, depth):\n"
        "        return self.walk(depth - 1) if depth else None\n"
        "    def helper(self):\n"
        "        return 1\n"
        "def build():\n"
        "    return Store()\n"
        "def exported():\n"
        "    return 2\n"
        "__all__ = ['exported', 'peek']\n"
    )
    readers = {
        "src/pkg/store.py": module,
        "src/pkg/__init__.py": "from pkg.store import exported\n",
        "bench/adapter.py": "PEEK = 'pkg.store:helper'\n",
        "examples/use.py": (
            "from pkg.store import build\n"
            "store = build()\n"
            "store.put(1)\n"
            "store.walk = None\n"
        ),
    }
    assert unread_definitions({"store.py": module}, readers) == [
        "store.py:Store.peek",
        "store.py:Store.walk",
        "store.py:exported",
    ]


def test_adapter_targets_count_only_in_the_adapter():
    """A ``"module:attr"`` string is a read in ``bench/adapter.py``, which
    resolves the program by name, and an ordinary string anywhere else."""
    module = "def resolved():\n    return 1\n"
    target = "TARGET = 'pkg.mod:resolved'\n"
    assert unread_definitions({"mod.py": module}, {"bench/adapter.py": target}) == []
    assert unread_definitions({"mod.py": module}, {"bench/other.py": target}) == [
        "mod.py:resolved"
    ]


def test_every_allowlisted_name_is_a_src_definition():
    """An entry for a name that was renamed or deleted is stale, not kept."""
    defined = {
        f"{module}:{qualname}"
        for module, source in _sources(SRC, SRC).items()
        for qualname in _definitions(ast.parse(source))
    }
    assert sorted(ALLOWED - defined) == []
