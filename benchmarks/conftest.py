"""Shared configuration for the reproduction ledger and the speed gates.

``test_ledger.py`` checks the paper's numbers, one row each, and the other
modules gate the speed of the program.  ``REPRO_BENCH_SCALE=full`` switches
the ledger to the paper's iteration counts (10 iterations per fixed-percent
configuration, 30 for the adaptive runs); the default "small" scale uses
fewer iterations so the whole suite completes in a few minutes.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from repro.scenarios.scenario import ExperimentScenario, cached_scenario

#: Environment variable selecting the benchmark scale ("small" or "full").
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


def bench_scale() -> str:
    """Benchmark scale selected through the environment (default "small")."""
    value = os.environ.get(SCALE_ENV_VAR, "small").strip().lower()
    if value not in ("small", "full"):
        raise ValueError(
            f"{SCALE_ENV_VAR} must be 'small' or 'full', got {value!r}"
        )
    return value


@pytest.fixture(scope="session")
def scale() -> str:
    """The benchmark scale (:func:`bench_scale`) the ledger runs at."""
    return bench_scale()


@pytest.fixture(scope="session")
def scenario_64() -> ExperimentScenario:
    """The paper's 64-core configuration (laptop-scale data, calibrated model)."""
    return cached_scenario(name="blue_waters_64", nsnapshots=10)


@pytest.fixture(scope="session")
def replaced_kernel():
    """Loader of an ``oracle_*`` function — a replaced kernel, kept verbatim
    beside its successor's tests — from ``tests/`` by file path (neither
    directory is a package): ``replaced_kernel(test_file, name)``."""

    def load(test_file: str, name: str):
        path = Path(__file__).resolve().parents[1] / "tests" / test_file
        spec = importlib.util.spec_from_file_location(f"oracle_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        # Registered as importing would: a dataclass resolves its string
        # annotations through ``sys.modules[cls.__module__]``.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return getattr(module, name)

    return load


@pytest.fixture(scope="session")
def run_step(replaced_kernel):
    """The tests' one way to run a single step on a fresh context
    (``execute_alone`` in ``tests/conftest.py``)."""
    return replaced_kernel("conftest.py", "execute_alone")


@pytest.fixture(scope="session")
def shm_leak_check(replaced_kernel):
    """The tests' one leak check (``shm_segments_since`` in
    ``tests/conftest.py``): ``new_segments = shm_leak_check()`` starts it,
    ``new_segments()`` is the set of ``psm_*`` entries new under ``/dev/shm``."""
    return replaced_kernel("conftest.py", "shm_segments_since")
