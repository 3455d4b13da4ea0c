"""Every name a ``repro`` module exports through ``__all__`` must resolve, and
``setup.py`` must describe the package it installs."""

from __future__ import annotations

import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _modules_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")  # importing it runs the CLI
    ]
    return [n for n in names if hasattr(importlib.import_module(n), "__all__")]


@pytest.mark.parametrize("module_name", _modules_with_all())
def test_all_names_resolve_and_are_unique(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    # getattr, not dir(): some modules resolve exports lazily (ENGINE_BACKENDS).
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ exports undefined names: {missing}"


@pytest.mark.parametrize(
    "package_name",
    [
        "repro.simmpi",
        "repro.grid",
        "repro.io",
        "repro.serve",
        "repro.viz",
        "repro.metrics",
        "repro.cm1",
        "repro.compress",
        "repro.scenarios",
    ],
)
def test_package_exports_only_what_other_modules_use(package_name):
    """A package re-exports what the rest of ``repro`` uses and nothing else:
    every name in its ``__all__`` is referenced by a module outside it (a
    test imports anything else from the defining module)."""
    root = Path(repro.__file__).parent
    package = root / package_name.split(".")[1]
    outside = "\n".join(
        path.read_text()
        for path in root.rglob("*.py")
        if package not in path.parents
    )
    unused = [
        name
        for name in importlib.import_module(package_name).__all__
        if not re.search(rf"\b{name}\b", outside)
    ]
    assert not unused, f"{package_name} exports names no other module uses: {unused}"


def test_setup_py_carries_the_package_metadata():
    """``setup.py`` is the whole install metadata: it names the package and
    reads the version from ``repro.__version__``."""
    root = Path(repro.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["repro", repro.__version__]
