"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import glob
import multiprocessing
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cm1.config import CM1Config
from repro.cm1.simulation import CM1Simulation
from repro.core.step import IterationContext
from repro.scenarios import ExperimentScenario, ScenarioConfig, create_scenario_config
from repro.scenarios.spec import TINY_SHAPE
from repro.utils import procpool


def execute_alone(step, per_rank_blocks, percent=0.0, iteration=0, **state):
    """``step.execute`` alone, on a fresh ``IterationContext`` over
    ``per_rank_blocks`` (lists or an arrival) and any further context
    ``state`` (``sorted_array=...``): the context after the step, and its
    report.  Tests reach it as the ``run_step`` fixture."""
    context = IterationContext(iteration, percent, per_rank_blocks, **state)
    return context, step.execute(context)


@pytest.fixture(scope="session")
def run_step():
    """:func:`execute_alone` (a test module cannot import ``conftest`` by name
    when several test directories have one)."""
    return execute_alone


def shm_segments_since():
    """Start a leak check: returns a callable giving the ``psm_*`` entries
    under ``/dev/shm`` (``multiprocessing.shared_memory`` segments) that were
    not there when this was called.  Tests reach it as the ``shm_leak_check``
    fixture."""

    def segments():
        root = Path("/dev/shm")
        if not root.is_dir():
            return set()
        return {name for name in os.listdir(root) if name.startswith("psm_")}

    before = segments()
    return lambda: segments() - before


@pytest.fixture(scope="session")
def shm_leak_check():
    """:func:`shm_segments_since`: ``new_segments = shm_leak_check()`` before
    the code under test, ``assert new_segments() == set()`` after it."""
    return shm_segments_since


#: Descriptors a test module may leave open beyond its baseline: none.  The
#: shared pool's pipes close with it, and nothing else in ``src/`` keeps one.
#: Not counted at all: the ``multiprocessing`` heap's arena
#: (``/dev/shm/pym-*``, a descriptor and its map's duplicate), which the first
#: pool generation's cancel words allocate for the life of the process.
FD_TOLERANCE = 0


def _child_pids():
    """Every child of this process, zombies included, from each thread's
    ``/proc`` children list (empty where the kernel has none)."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as children:
                pids.update(int(pid) for pid in children.read().split())
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return pids | {child.pid for child in multiprocessing.active_children()}


def _open_fds():
    """How many descriptors this process has open, the heap's arena aside."""
    count = 0
    for fd in os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else ():
        with contextlib.suppress(OSError):  # the listing's own, closed by now
            count += "/pym-" not in os.readlink(f"/proc/self/fd/{fd}")
    return count


def leaks_since():
    """Start a hygiene check: returns a callable ``leaks(grace=1.0)`` listing
    what was left behind since this call — live non-daemon threads (each
    given up to ``grace`` seconds in all to end), child processes, ``psm_*``
    segments and descriptors beyond :data:`FD_TOLERANCE`.  Tests reach it as
    the ``hygiene_check`` fixture."""
    threads = set(threading.enumerate())
    children = _child_pids()
    fds = _open_fds()
    segments = shm_segments_since()

    def leaks(grace=1.0):
        deadline = time.monotonic() + grace
        left = [
            thread
            for thread in threading.enumerate()
            if thread not in threads and not thread.daemon
        ]
        for thread in left:
            thread.join(max(0.0, deadline - time.monotonic()))
        found = [f"thread {t.name!r} still running" for t in left if t.is_alive()]
        found += [f"child process {pid} left" for pid in sorted(_child_pids() - children)]
        found += [f"shared-memory segment {name} left" for name in sorted(segments())]
        extra = _open_fds() - fds
        if extra > FD_TOLERANCE:
            found.append(f"{extra} descriptors open beyond the baseline")
        return found

    return leaks


@pytest.fixture(scope="session")
def hygiene_check():
    """:func:`leaks_since`."""
    return leaks_since


@pytest.fixture(scope="module", autouse=True)
def module_hygiene():
    """After each test module: no thread, child process, shared-memory
    segment or descriptor left behind (:func:`leaks_since`).  The shared
    process pool is process-wide by design, so it is shut down first —
    cleanup, not a hidden leak: its workers and pipes go with it."""
    leaks = leaks_since()
    yield
    procpool.shutdown_shared_pool()
    found = leaks()
    assert not found, f"the module left behind: {found}"


def tiny_config(name, nranks=4, nsnapshots=2):
    """The catalogue workload ``name`` at unit-test scale: the 44×44×12 grid
    on ``nranks`` ranks and ``nsnapshots`` snapshots.  Only the grid and the
    counts shrink; the storm and the block decomposition stay the row's, so a
    tiny-scale test runs the workload's shape.  Tests reach it as the
    ``at_tiny_scale`` fixture."""
    return create_scenario_config(
        name, ncores=nranks, nsnapshots=nsnapshots, shape=TINY_SHAPE
    )


@pytest.fixture(scope="session")
def at_tiny_scale():
    """:func:`tiny_config`."""
    return tiny_config


#: A very small CM1 configuration, fast to generate: the tiny grid, the
#: default storm and seed.
TINY_CM1 = CM1Config(shape=TINY_SHAPE)


@pytest.fixture(scope="session")
def tiny_cm1() -> CM1Config:
    """:data:`TINY_CM1`."""
    return TINY_CM1


@pytest.fixture(scope="session")
def tiny_simulation() -> CM1Simulation:
    """A very small synthetic CM1 simulation shared across tests."""
    return CM1Simulation(TINY_CM1)


@pytest.fixture(scope="session")
def tiny_domain(tiny_simulation):
    """The first snapshot of the tiny simulation."""
    return tiny_simulation.snapshot(0)


@pytest.fixture(scope="session")
def tiny_field(tiny_domain) -> np.ndarray:
    """The reflectivity field of the tiny snapshot."""
    return np.asarray(tiny_domain.get_field("dbz"), dtype=np.float64)


@pytest.fixture(scope="session")
def tiny_scenario() -> ExperimentScenario:
    """A 4-rank experiment scenario shared across integration tests."""
    return ExperimentScenario(create_scenario_config("tiny", nsnapshots=3))


@pytest.fixture(scope="session")
def small_scenario_16() -> ExperimentScenario:
    """A 16-rank scenario with a non-trivial block layout."""
    return ExperimentScenario(
        ScenarioConfig(
            ncores=16,
            shape=(88, 88, 24),
            blocks_per_subdomain=(2, 2, 2),
            nsnapshots=3,
        )
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG for per-test random data."""
    return np.random.default_rng(12345)


@pytest.fixture()
def smooth_block(rng) -> np.ndarray:
    """A smooth (highly compressible, low-information) block."""
    x = np.linspace(0.0, 1.0, 12)
    xx, yy, zz = np.meshgrid(x, x, x[:8], indexing="ij")
    return (xx + 2.0 * yy - zz).astype(np.float32)


@pytest.fixture()
def turbulent_block(rng) -> np.ndarray:
    """A turbulent (information-rich) block in the dBZ value range."""
    return (rng.uniform(-60.0, 80.0, size=(12, 12, 8))).astype(np.float32)


@pytest.fixture()
def constant_block() -> np.ndarray:
    """A constant block (zero information)."""
    return np.full((10, 10, 6), -60.0, dtype=np.float32)


@pytest.fixture()
def two_workers(monkeypatch):
    """A second pool worker whatever the box, so that ``gil_bound`` metrics
    take the process pool (``repro.utils.procpool.pool_pays``) on one CPU too."""
    monkeypatch.setattr("repro.utils.procpool.default_process_workers", lambda: 2)


@pytest.fixture()
def scoring_fanout(monkeypatch, two_workers):
    """Whether the batched scoring step took the pool: the ``processes``
    argument of every ``map_shape_groups`` call it makes, in call order."""
    from repro.grid.fanout import map_shape_groups

    calls = []

    def spy(groups, kernel, dtype, pooled):
        calls.append(pooled)
        return map_shape_groups(groups, kernel, dtype, pooled)

    monkeypatch.setattr("repro.core.scoring_step.map_shape_groups", spy)
    return calls
