"""The shared lazy process pool, and the one rule that says when to take it.

Worker processes pay for *GIL-bound* per-block Python — pure-Python scoring
loops, the Python-heavy coders — which nothing inside one interpreter can
overlap; a GIL-releasing NumPy kernel runs up to 20x faster inline than chunked
over the pool.  That is a property of the kernel, not a choice a caller should
have to make, so the choice is one predicate, :func:`pool_pays`: the batched
scoring step asks it with its metric's ``gil_bound`` declaration and
:func:`~repro.grid.fanout.map_shape_groups` does as told.  The serve mode's
process tier is the one other caller: it submits whole runs to the same pool.

Worker processes are expensive to start, so there is a single module-level
pool, created lazily on first use.  It uses the ``fork`` start method where
available: forked workers start in milliseconds and inherit the parent's
imports.  Every fork happens either during single-threaded start-up
(:func:`warm_shared_pool`, what ``repro serve`` calls) or from the main
thread — :func:`pool_pays` refuses any other caller, so no request thread
ever forks.  A task carries its payload pickled — a scoring task its chunk
of stacked rows, a serve run only the path of the store its worker maps — so
the pool creates no shared-memory segment and starts no resource-tracker
daemon: a warmed pool's only child processes are its workers.

Each pool generation — what :func:`shared_process_pool` creates and
:func:`shutdown_shared_pool` ends — also owns its workers' channels
(:class:`WorkerChannels`), made before any worker forks and handed to each
worker by the pool initializer; the serve mode's process tier streams its
runs' events over them.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.connection import Connection
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PROCESS_CPUS",
    "WorkerChannels",
    "chunk_bounds",
    "default_process_workers",
    "pool_pays",
    "shared_pool_channels",
    "shared_process_pool",
    "shutdown_shared_pool",
    "warm_shared_pool",
    "worker_channel",
]

_POOL: Optional[ProcessPoolExecutor] = None
#: The channels of ``_POOL``'s generation; set and cleared together with it.
_CHANNELS: Optional["WorkerChannels"] = None
_POOL_LOCK = threading.Lock()

#: In a pool worker: ``(slot, sender, cancel)`` — its slot number, the write
#: end of its slot's pipe and its generation's cancel words; ``None`` elsewhere.
_WORKER_CHANNEL: Optional[Tuple[int, Connection, Sequence[int]]] = None

#: The CPUs this process may run on, read once at import: its affinity mask
#: where the platform has one (a ``taskset -c 0`` run has one CPU, whatever
#: the machine).  On Linux ``os.sched_getaffinity(0)`` is the *calling
#: thread's* mask, and a thread-tier serve runner confines its own to one CPU
#: (:mod:`repro.serve.server`), so the process's answer is the one read
#: before any thread could.
PROCESS_CPUS: FrozenSet[int] = frozenset(
    os.sched_getaffinity(0)
    if hasattr(os, "sched_getaffinity")
    else range(os.cpu_count() or 1)
)


def default_process_workers() -> int:
    """Worker count for the shared pool: the CPUs this process may run on
    (:data:`PROCESS_CPUS`), at most 16 — the same answer on every thread."""
    return min(16, len(PROCESS_CPUS))


def _start_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def pool_pays(gil_bound: bool) -> bool:
    """Whether a row kernel should be mapped over the shared pool: it holds
    the GIL (its metric's ``gil_bound`` declaration), a second worker exists
    to overlap it, workers are forked (a spawned worker re-imports the
    program), and the caller may fork — it is the main thread, and it is not
    itself a pool worker (no pool inside a pool).  Anything else runs the
    kernel inline."""
    return (
        bool(gil_bound)
        and default_process_workers() > 1
        and _start_context().get_start_method() == "fork"
        and threading.current_thread() is threading.main_thread()
        and multiprocessing.parent_process() is None
    )


class WorkerChannels:
    """One pool generation's worker channels: a pipe and a word per slot.

    ``readers[i]`` is the parent's read end of slot ``i``'s
    ``Pipe(duplex=False)`` — one writer per pipe, so no lock is shared
    between workers — and ``cancel[i]`` its word of a shared
    ``RawArray("q", width)`` (0 until the parent writes one).  Each worker
    takes the next free slot in the pool initializer (:func:`_adopt_channel`),
    keeps that pipe's write end and reads its slot through
    :func:`worker_channel`.  :func:`shutdown_shared_pool` closes the
    parent's write ends once the workers have exited, so each reader then
    reads EOF; whoever reads the pipes closes the readers.
    """

    def __init__(self, context: multiprocessing.context.BaseContext, width: int) -> None:
        pipes = [context.Pipe(duplex=False) for _ in range(width)]
        self.readers: Tuple[Connection, ...] = tuple(reader for reader, _ in pipes)
        self._writers: Tuple[Connection, ...] = tuple(writer for _, writer in pipes)
        self.cancel = context.RawArray("q", width)
        self._next_slot = context.Value("i", 0)

    def initargs(self) -> tuple:
        """What the pool initializer receives in every worker."""
        return (self._writers, self.cancel, self._next_slot)

    def close_writers(self) -> None:
        for writer in self._writers:
            writer.close()


def _adopt_channel(writers, cancel, next_slot) -> None:
    """Pool initializer: take the next slot and keep only its pipe's write end."""
    global _WORKER_CHANNEL
    with next_slot.get_lock():
        slot = next_slot.value
        next_slot.value += 1
    for index, writer in enumerate(writers):
        if index != slot:
            writer.close()
    _WORKER_CHANNEL = (slot, writers[slot], cancel)


def worker_channel() -> Tuple[int, Connection, Sequence[int]]:
    """This pool worker's ``(slot, sender, cancel)``; ``RuntimeError`` outside one."""
    if _WORKER_CHANNEL is None:
        raise RuntimeError("worker_channel() is only available in a shared-pool worker")
    return _WORKER_CHANNEL


def shared_pool_channels() -> Tuple[ProcessPoolExecutor, WorkerChannels]:
    """The process-wide worker pool and its generation's channels, created
    together on first use."""
    global _POOL, _CHANNELS
    with _POOL_LOCK:
        if _POOL is None:
            context = _start_context()
            width = default_process_workers()
            _CHANNELS = WorkerChannels(context, width)
            _POOL = ProcessPoolExecutor(
                max_workers=width,
                mp_context=context,
                initializer=_adopt_channel,
                initargs=_CHANNELS.initargs(),
            )
        return _POOL, _CHANNELS


def shared_process_pool() -> ProcessPoolExecutor:
    """The process-wide worker pool, created on first use."""
    return shared_pool_channels()[0]


def warm_shared_pool(tasks: Optional[int] = None) -> int:
    """Spin up the shared pool's worker processes ahead of time.

    Workers fork lazily on submit; a server that first submits from a
    request thread would fork with arbitrary other threads running.  Calling
    this during single-threaded startup makes every later submit hit an
    already-forked worker.  Returns the number of distinct worker PIDs seen.
    """
    pool = shared_process_pool()
    count = default_process_workers() if tasks is None else max(1, int(tasks))
    # time.sleep keeps each warmup task busy long enough that the executor's
    # on-demand spawner starts a fresh worker for the next one.
    futures = [pool.submit(time.sleep, 0.02) for _ in range(count)]
    for future in futures:
        future.result()
    return len(pool._processes or {})


def shutdown_shared_pool() -> None:
    """Tear down the shared pool and close its generation's write ends
    (tests / interpreter exit); the next use starts a new generation."""
    global _POOL, _CHANNELS
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
        channels, _CHANNELS = _CHANNELS, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    if channels is not None:
        channels.close_writers()


atexit.register(shutdown_shared_pool)


def chunk_bounds(n: int, nchunks: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``nchunks`` contiguous, non-empty
    ``(lo, hi)`` slices of near-equal size."""
    if n <= 0:
        return []
    nchunks = max(1, min(int(nchunks), n))
    bounds = np.linspace(0, n, nchunks + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
