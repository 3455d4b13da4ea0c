"""Every name a ``src/`` module imports is used there or re-exported.

The repo runs no linter, so this is what keeps dead imports from coming
back: each module under ``src/`` is parsed with :mod:`ast`, and a name bound
by an ``import`` must be read somewhere in the module (including string
annotations) or listed in its ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported(tree):
    """``{bound name: line}`` of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _string_annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _referenced(tree):
    """Names the module reads: bare names, and those inside quoted
    annotations and ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _string_annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced(ast.parse(node.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str):
    """``[(line, name)]`` of the imported names ``source`` never uses."""
    tree = ast.parse(source)
    used = _referenced(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_no_src_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unused = {
        str(path.relative_to(SRC)): found
        for path in modules
        if (found := unused_imports(path.read_text()))
    }
    assert unused == {}


def test_the_scan_sees_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List, Optional\n"
        "from a import b as c, d\n"
        "__all__ = ['d']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [sys.maxsize]\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "c")]
